"""Model-based testing of the file system against a dict of bytes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.device import LocalBlockDevice
from repro.errors import FileSystemError
from repro.fs import FileSystem

from ..fs.conftest import RecordingDevice, outcome

NAMES = ["alpha", "beta", "gamma", "delta"]

operations = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(NAMES)),
    st.tuples(
        st.just("write"),
        st.sampled_from(NAMES),
        st.binary(min_size=0, max_size=600),
        st.integers(min_value=0, max_value=1200),
    ),
    st.tuples(st.just("unlink"), st.sampled_from(NAMES)),
    st.tuples(st.just("truncate"), st.sampled_from(NAMES)),
)


def apply_to_model(model, op):
    """Apply ``op`` to the dict model; returns whether it should succeed."""
    kind = op[0]
    name = op[1]
    if kind == "create":
        if name in model:
            return False
        model[name] = b""
        return True
    if name not in model:
        return False
    if kind == "write":
        _k, _n, data, offset = op
        current = model[name]
        if offset > len(current):
            current = current + bytes(offset - len(current))
        model[name] = (
            current[:offset] + data + current[offset + len(data):]
        )
    elif kind == "unlink":
        del model[name]
    elif kind == "truncate":
        model[name] = b""
    return True


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=30))
def test_fs_matches_dict_model(ops):
    device = LocalBlockDevice(num_blocks=1024, block_size=512)
    fs = FileSystem.format(device, num_inodes=32)
    model = {}
    for op in ops:
        kind, name = op[0], op[1]
        path = f"/{name}"
        try:
            if kind == "create":
                fs.create(path)
                fs_ok = True
            elif kind == "write":
                fs.write_file(path, op[2], offset=op[3])
                fs_ok = True
            elif kind == "unlink":
                fs.unlink(path)
                fs_ok = True
            else:
                fs.truncate(path)
                fs_ok = True
        except FileSystemError:
            fs_ok = False
        model_copy = dict(model)
        model_ok = apply_to_model(model, op)
        if not model_ok:
            model = model_copy  # failed ops must not change the model
        assert fs_ok == model_ok, (op, fs_ok, model_ok)
    # final state comparison
    assert sorted(fs.listdir("/")) == sorted(model)
    for name, contents in model.items():
        assert fs.read_file(f"/{name}") == contents
        assert fs.stat(f"/{name}").size == len(contents)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=25))
def test_fs_model_survives_remount(ops):
    device = LocalBlockDevice(num_blocks=1024, block_size=512)
    fs = FileSystem.format(device, num_inodes=32)
    model = {}
    for op in ops:
        path = f"/{op[1]}"
        try:
            if op[0] == "create":
                fs.create(path)
            elif op[0] == "write":
                fs.write_file(path, op[2], offset=op[3])
            elif op[0] == "unlink":
                fs.unlink(path)
            else:
                fs.truncate(path)
        except FileSystemError:
            continue
        apply_to_model(model, op)
    remounted = FileSystem.mount(device)
    assert sorted(remounted.listdir("/")) == sorted(model)
    for name, contents in model.items():
        assert remounted.read_file(f"/{name}") == contents


# -- the name cache against the device ----------------------------------------
#
# A mount remembers names (``FileSystem._names``); a mount made afresh
# remembers none.  After every step of a history over a small tree the
# two must tell the same story.

TREE_NAMES = ["a", "b"]
#: Every path of the alphabet, three levels deep.
TREE_PATHS = [
    "/" + "/".join(parts)
    for depth in (1, 2, 3)
    for parts in itertools.product(TREE_NAMES, repeat=depth)
]

SHALLOW = [path for path in TREE_PATHS if path.count("/") < 3]


def tree_operation(rng, tree):
    """An operation on ``tree`` as it stands.  Three times in four it
    names a path of the kind it needs (a file to write, a directory to
    remove, anything to move), so that most histories get somewhere;
    else any path of the alphabet, for the refusals."""
    likely = rng.random() < 0.75

    def among(paths):
        return rng.choice(sorted(paths) if likely and paths else SHALLOW)

    kind = rng.choice(
        ["create", "mkdir"] * 2
        + ["write", "truncate", "unlink", "rmdir", "rename", "rename"]
    )
    if kind in ("create", "mkdir"):
        return kind, rng.choice(SHALLOW)
    if kind == "rename":
        return kind, among(list(tree)), rng.choice(SHALLOW)
    path = among(
        [path for path, held in tree.items() if (held is None) == (kind == "rmdir")]
    )
    if kind == "write":
        return kind, path, rng.randbytes(rng.randrange(600)), rng.randrange(1200)
    return kind, path


def apply_to_tree(tree, op):
    """Apply ``op`` to ``{path: bytes, or None for a directory}``;
    returns whether it should succeed (``tree`` is unchanged if not)."""

    def is_directory(path):  # "" is the root
        return not path or (path in tree and tree[path] is None)

    def vacant(path):
        return path not in tree and is_directory(path.rsplit("/", 1)[0])

    kind, path = op[0], op[1]
    if kind in ("create", "mkdir"):
        if not vacant(path):
            return False
        tree[path] = b"" if kind == "create" else None
    elif kind == "rename":
        new = op[2]
        inside = [p for p in tree if p == path or p.startswith(path + "/")]
        if not inside or not vacant(new) or new.startswith(path + "/"):
            return False
        for old in inside:
            tree[new + old[len(path):]] = tree.pop(old)
    elif kind == "rmdir":
        if path not in tree or not is_directory(path) or any(
            other.startswith(path + "/") for other in tree
        ):
            return False
        del tree[path]
    elif path not in tree or is_directory(path):
        return False
    elif kind == "unlink":
        del tree[path]
    elif kind == "truncate":
        tree[path] = b""
    else:
        apply_to_model(tree, op)
    return True


@pytest.mark.parametrize("seed", range(40))
def test_a_mount_and_a_fresh_mount_agree_after_every_step(seed):
    rng = random.Random(seed)
    device = LocalBlockDevice(num_blocks=1024, block_size=512)
    fs = FileSystem.format(device, num_inodes=64)
    tree = {}
    for _step in range(60):
        op = tree_operation(rng, tree)
        call = getattr(fs, "write_file" if op[0] == "write" else op[0])
        fs_ok = outcome(lambda: call(*op[1:])) is None
        assert fs_ok == apply_to_tree(tree, op), op
        fresh = FileSystem.mount(device)
        assert fs.walk("/") == fresh.walk("/") == sorted(tree), op
        for path, contents in tree.items():
            if contents is not None:
                assert fs.read_file(path) == fresh.read_file(path) == contents
        for path in TREE_PATHS:
            # the same inode number, or the same refusal
            assert outcome(lambda: fs.stat(path).inode) == outcome(
                lambda: fresh.stat(path).inode
            ), (op, path)


# The four histories a stale entry would break.


def test_a_name_removed_and_made_again_leads_to_the_new_inode():
    fs = FileSystem.format(LocalBlockDevice(num_blocks=128, block_size=512))
    fs.create("/f")
    stale = fs.stat("/f").inode
    fs.unlink("/f")
    assert not fs.exists("/f")
    fs.create("/other")  # takes the inode number /f gave up
    fs.create("/f")
    fs.write_file("/other", b"not f")
    assert fs.stat("/other").inode == stale != fs.stat("/f").inode
    assert fs.read_file("/f") == b""


def test_a_reused_directory_inode_does_not_inherit_names():
    fs = FileSystem.format(LocalBlockDevice(num_blocks=128, block_size=512))
    fs.mkdir("/d")
    fs.create("/d/x")
    assert fs.exists("/d/x")
    fs.unlink("/d/x")
    fs.rmdir("/d")
    fs.mkdir("/e")
    assert fs.stat("/e").inode == 1  # the number /d had
    assert not fs.exists("/e/x") and fs.listdir("/e") == []


def test_a_renamed_directory_keeps_its_children_warm():
    device = RecordingDevice(num_blocks=128)
    fs = FileSystem.format(device)
    fs.mkdir("/d")
    fs.create("/d/x")
    fs.write_file("/d/x", b"child")
    fs.rename("/d", "/e")
    reads, _writes = device.spent(lambda: fs.stat("/e/x"))
    assert len(reads) == 1  # x's inode: neither / nor /e was scanned
    assert fs.read_file("/e/x") == b"child"
    assert not fs.exists("/d") and not fs.exists("/d/x")


def test_a_file_moved_across_directories_leaves_its_old_name():
    fs = FileSystem.format(LocalBlockDevice(num_blocks=128, block_size=512))
    fs.mkdir("/d")
    fs.mkdir("/e")
    fs.create("/d/f")
    fs.write_file("/d/f", b"moved")
    assert fs.exists("/d/f")  # the source entry is warm
    fs.rename("/d/f", "/e/f")
    assert not fs.exists("/d/f") and fs.listdir("/d") == []
    assert fs.read_file("/e/f") == b"moved"
    fs.create("/d/f")
    assert fs.stat("/d/f").inode != fs.stat("/e/f").inode
