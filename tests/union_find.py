"""A plain union-find, the oracle that tests/test_polyhedral.py glues the
vertex classes of every face pair with."""


def union_classes(size: int, pairs) -> list:
    """Representative of each of 0..size-1 once every pair is identified."""
    parent = list(range(size))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        parent[x] = y
    for v in range(size):
        # point every id straight at its root
        while parent[parent[v]] != parent[v]:
            parent[v] = parent[parent[v]]
    return parent
