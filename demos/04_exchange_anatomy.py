"""Anatomy of a single improving exchange.

The remainder color here is disconnected but contains a cycle: a doubled
edge (1,2) whose endpoints end up in different terminal classes, so both
copies have finite level. The exchange takes the lower-id copy (edge e,
level m = 1), walks the fundamental cycle it closes in the tree that
splits level 1, and sends the cycle's lowest-level edge (e', level j = 0)
back to the remainder. The new coloring is strictly greater in the
improvement order, which is exactly why the loop terminates.
"""

from treepack import (
    KPartition,
    MultiGraph,
    build_sequence,
    exchange_step,
    precedes,
)

edges = [(0, 1), (1, 4), (4, 2), (2, 3), (0, 1), (2, 3), (1, 2), (1, 2)]
g = MultiGraph(5, tuple(edges))
t = KPartition.from_edge_sets(2, [range(0, 4), range(4, 8)], g.m)

print("before:", [f"{e}:{g.edges[e]}@c{t.color_of[e]}" for e in range(g.m)])
event = exchange_step(g, t)

print(f"\ne       = {event.e} {g.edges[event.e]}   (remainder cycle edge, level m = {event.m})")
print(f"class P = {event.class_p}   (class at level m holding both ends of e)")
print(f"c_m     = {event.c_m}   (tree color that splits level m)")
print(f"cycle C = {event.cycle}   (fundamental cycle of e in that tree)")
print(f"e'      = {event.e_prime} {g.edges[event.e_prime]}   (lowest-level edge of C, level j = {event.j})")
print(f"class Q = {event.class_q}   (class at level j; the whole cycle sits inside it)")

print("\nafter: ", [f"{e}:{g.edges[e]}@c{event.after.color_of[e]}" for e in range(g.m)])
print("improved:", precedes(t, event.after, g))

print(f"terminal partition before: {event.sequence.terminal}")
print(f"terminal partition after:  {build_sequence(g, event.after).terminal}")
