"""A depth-first rooted isomorphism search, the oracle that
tests/test_gems.py checks the breadth-first walk of graph_isomorphic
against."""

from itertools import permutations


def _rooted_match(pairs, w0):
    # the image of every vertex is forced by the image w0 of vertex 0
    image = [-1] * len(pairs[0][0])
    image[0] = w0
    stack = [0]
    while stack:
        v = stack.pop()
        for inv1, inv2 in pairs:
            u, w = inv1[v], inv2[image[v]]
            if image[u] == -1:
                image[u] = w
                stack.append(u)
            elif image[u] != w:
                return False
    return len(set(image)) == len(image)


def depth_first_isomorphic(g1, g2, allow_colour_permutation=False):
    """True iff some colour-respecting bijection (up to a permutation of the
    colours, if allowed) carries g1 onto g2."""
    if g1.vertex_count != g2.vertex_count:
        return False
    sigmas = permutations(range(4)) if allow_colour_permutation else ((0, 1, 2, 3),)
    return any(_rooted_match(tuple(zip(g1.involutions, (g2.involutions[c] for c in sigma))), w0)
               for sigma in sigmas for w0 in range(g2.vertex_count))
