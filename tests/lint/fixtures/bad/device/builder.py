from repro.types import SchemeName


def weighted(scheme):
    return scheme is SchemeName.VOTING
