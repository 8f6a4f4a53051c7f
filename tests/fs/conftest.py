"""What the file-system tests share: one instrumented device, and one
way to compare what two mounts make of a call."""

from repro.device import LocalBlockDevice
from repro.errors import DeviceError, FileSystemError

BS = 512


def outcome(call):
    """What ``call`` returns, or the class of the refusal it raises."""
    try:
        return call()
    except FileSystemError as exc:
        return type(exc)


class RecordingDevice(LocalBlockDevice):
    """A local device that logs every call and can refuse writes.

    ``log`` holds one ``(op, blocks)`` per call served, in order: ``"r"``
    and ``"rb"`` (single and batch read) with the list of blocks as the
    caller named them, duplicates included; ``"w"`` and ``"wb"`` with
    ``{block: data}``.  ``write_calls`` counts write calls attempted;
    the ``fail_at``-th is refused with a :class:`DeviceError` before it
    touches the store or the log -- and, with ``stay_down``, so is
    every one after it.  With ``in_doubt`` a failing write is served
    and logged first and raises afterwards: what a replicated device
    does when a write lands and then loses its quorum.
    """

    def __init__(self, num_blocks):
        super().__init__(num_blocks=num_blocks, block_size=BS)
        self.log = []
        self.write_calls = 0
        self.fail_at = None
        self.stay_down = False
        self.in_doubt = False

    def _admit(self):
        """Count a write call.  A refused one raises here; returns
        whether the call is to raise once it has been served."""
        self.write_calls += 1
        fails = self.fail_at is not None and (
            self.write_calls == self.fail_at
            or (self.stay_down and self.write_calls > self.fail_at)
        )
        if fails and not self.in_doubt:
            raise DeviceError(f"injected at write {self.write_calls}")
        return fails

    def _settle(self, fails):
        if fails:
            raise DeviceError(f"write {self.write_calls} landed, then raised")

    def read_block(self, index):
        self.log.append(("r", [index]))
        return super().read_block(index)

    def read_blocks(self, indices):
        self.log.append(("rb", list(indices)))
        return super().read_blocks(indices)

    def write_block(self, index, data):
        fails = self._admit()
        self.log.append(("w", {index: data}))
        super().write_block(index, data)
        self._settle(fails)

    def write_blocks(self, writes):
        fails = self._admit()
        self.log.append(("wb", dict(writes)))
        super().write_blocks(writes)
        self._settle(fails)

    def spent(self, call):
        """What ``call`` costs: ``(reads, writes)``, the blocks of each
        read call and of each write call it makes, in order."""
        start = len(self.log)
        call()
        made = self.log[start:]
        return (
            [blocks for op, blocks in made if op[0] == "r"],
            [blocks for op, blocks in made if op[0] == "w"],
        )
