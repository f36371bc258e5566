"""Correctness gates.  Every violation is recorded in a :class:`Gate`, and a
run with any violation is not correct.

* Exact distances come from SciPy's Dijkstra, independent of the code
  under test.  Hopset edges must never be shorter than the exact
  distance, and β-hop distances over G ∪ H (computed here with NumPy,
  again independently) must never be shorter than exact nor miss a
  reachable vertex.  Their largest ratio to exact is measured, not
  gated at 1+ε: the program builds with a practical β and documents
  that stretch at that budget is measured, not guaranteed (DESIGN.md §1,
  ``HopsetParams.beta``).
* ``serve-static`` replies must equal, bit for bit, what the offline
  :class:`repro.sssp.oracle.HopsetDistanceOracle` gives for the same
  graph and hopset files.
* ``serve-dynamic`` replies must equal, bit for bit, what an in-process
  ``OracleServer(dynamic=True, pair_cache=0)`` replays from the server's
  own ``--log``; every query must also be at least its exact distance on
  the graph as mutated up to that point in the log.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Relative slack for comparing float sums taken in different orders.
REL_TOL = 1e-9


class Gate:
    """The violations found in one run's outputs."""

    def __init__(self) -> None:
        self.violations: list[str] = []

    def fail(self, message: str) -> None:
        self.violations.append(message)


def load_npz(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def simple_edges(u, v, w, n):
    """Undirected simple edge arrays (lo, hi, min weight) of a multigraph."""
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    code = lo * n + hi
    order = np.lexsort((w, code))
    code, w = code[order], np.asarray(w, dtype=np.float64)[order]
    first = np.ones(code.size, dtype=bool)
    first[1:] = code[1:] != code[:-1]
    code, w = code[first], w[first]
    return code // n, code % n, w


def exact_from(n: int, u, v, w, sources) -> np.ndarray:
    """Exact distances from ``sources`` (rows) in the undirected graph."""
    a, b, ww = simple_edges(np.asarray(u), np.asarray(v), np.asarray(w), n)
    mat = csr_matrix((ww, (a, b)), shape=(n, n))
    return dijkstra(mat, directed=False, indices=np.asarray(sources, dtype=np.int64))


def hop_limited(n: int, u, v, w, sources, hops: int) -> np.ndarray:
    """β-hop distances from ``sources`` over an undirected multigraph.

    ``hops`` rounds of synchronous Bellman–Ford on an S × n matrix: each
    round relaxes every arc once from the previous round's distances.
    """
    a, b, ww = simple_edges(np.asarray(u), np.asarray(v), np.asarray(w), n)
    tails = np.concatenate([a, b])
    heads = np.concatenate([b, a])
    wts = np.concatenate([ww, ww])
    order = np.argsort(heads, kind="stable")
    tails, heads, wts = tails[order], heads[order], wts[order]
    starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
    targets = heads[starts]
    src = np.asarray(sources, dtype=np.int64)
    dist = np.full((src.size, n), np.inf)
    dist[np.arange(src.size), src] = 0.0
    for _ in range(hops):
        cand = dist[:, tails] + wts
        best = np.minimum.reduceat(cand, starts, axis=1)
        new = dist.copy()
        new[:, targets] = np.minimum(dist[:, targets], best)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def hop_budget(beta: int, n: int) -> int:
    """The oracle's default exploration budget, 2β+1 (capped at n−1)."""
    return min(2 * beta + 1, max(n - 1, 1))


def check_hopset(graph: dict, hopset: dict, sample: np.ndarray, gate: Gate) -> float:
    """Gate a hopset file; returns the largest stretch over the sample.

    No hopset edge may be shorter than the exact distance between its
    ends, and the β-hop distance from each sampled source to every
    vertex must be at least exact and finite where exact is.
    """
    n = int(graph["n"][0])
    eu, ev, ew = hopset["edge_u"], hopset["edge_v"], hopset["edge_w"]
    if eu.size:
        ends = np.unique(eu)
        exact = exact_from(n, graph["edge_u"], graph["edge_v"], graph["edge_w"], ends)
        row = np.searchsorted(ends, eu)
        truth = exact[row, ev]
        for i in np.flatnonzero(ew < truth * (1 - REL_TOL))[:5]:
            gate.fail(
                f"hopset edge ({eu[i]}, {ev[i]}) weighs {ew[i]!r}, "
                f"below the exact distance {truth[i]!r}"
            )
    u = np.concatenate([graph["edge_u"], eu])
    v = np.concatenate([graph["edge_v"], ev])
    w = np.concatenate([graph["edge_w"], ew])
    approx = hop_limited(n, u, v, w, sample, hop_budget(int(hopset["beta"][0]), n))
    exact = exact_from(n, graph["edge_u"], graph["edge_v"], graph["edge_w"], sample)
    return stretch_max(approx, exact, gate)


def stretch_max(approx, exact, gate: Gate, reach: bool = True) -> float:
    """Largest approx/exact over reached pairs at positive distance.

    An approximation below the exact distance always fails the gate;
    with ``reach``, so does a reachable pair reported unreachable.  The
    stretch itself is returned, not gated: with the default practical β
    a road graph can exceed 1+ε at 2β+1 hops, which the program allows.
    """
    approx = np.asarray(approx, float).ravel()
    exact = np.asarray(exact, float).ravel()
    for i in np.flatnonzero(approx < exact * (1 - REL_TOL))[:5]:
        gate.fail(f"under-estimate: {approx[i]!r} < exact {exact[i]!r}")
    unreached = np.isinf(approx) & np.isfinite(exact)
    if reach and unreached.any():
        gate.fail(f"{int(unreached.sum())} reachable pairs reported unreachable")
    live = np.isfinite(approx) & np.isfinite(exact) & (exact > 0)
    if not live.any():
        return 1.0
    return float(np.max(approx[live] / exact[live]))


# -- reply checks ------------------------------------------------------------


def tree_walk(parent: np.ndarray, s: int, t: int) -> list[int] | None:
    walk = [t]
    while walk[-1] != s:
        nxt = int(parent[walk[-1]])
        if nxt < 0 or len(walk) > parent.size:
            return None
        walk.append(nxt)
    return walk[::-1]


def expected_reply(line: str, dist: np.ndarray, parent: np.ndarray) -> str:
    """The protocol reply to a ``dist``/``path`` line from source vectors."""
    kind, a, b = line.split()
    u, v = int(a), int(b)
    if kind == "dist":
        return f"ok dist {u} {v} {float(dist[v])!r}"
    walk = tree_walk(parent, u, v) if np.isfinite(dist[v]) else None
    if walk is None:
        return f"ok path {u} {v} unreachable"
    return f"ok path {u} {v} " + " ".join(map(str, walk))


def check_static(records, graph_path, hopset_path, gate: Gate) -> float:
    """Gate served replies against the offline oracle; returns stretch max."""
    from repro.serialize import load_graph, load_hopset
    from repro.sssp.oracle import HopsetDistanceOracle

    graph, hopset = load_graph(graph_path), load_hopset(hopset_path)
    ok = [r for r in records if r.ok]
    by_source: dict[int, list] = defaultdict(list)
    for r in ok:
        by_source[int(r.line.split()[1])].append(r)
    sources = sorted(by_source)
    oracle = HopsetDistanceOracle(graph, hopset, cache_size=max(len(sources), 1))
    oracle.explore_many(sources)
    approx, truth = [], []
    exact = exact_from(graph.n, graph.edge_u, graph.edge_v, graph.edge_w, sources)
    for i, s in enumerate(sources):
        dist, parent = oracle.vectors_from(s)
        for r in by_source[s]:
            want = expected_reply(r.line, dist, parent)
            if r.reply != want:
                gate.fail(f"{r.line!r}: served {r.reply!r}, oracle says {want!r}")
            if r.kind == "dist":
                v = int(r.line.split()[2])
                approx.append(float(r.reply.split()[-1]))
                truth.append(exact[i, v])
    return stretch_max(approx, truth, gate)


def match_log(clients, log_lines: list[str], replies: list[str], gate: Gate) -> None:
    """Check that the log is an interleaving of the clients' requests.

    The log holds both connections' requests in served order.  It must
    be an interleaving of the clients' own sequences in which every
    served reply equals the replayed reply at its log position.
    Identical lines on two connections make the interleaving ambiguous,
    so every consistent frontier (per-client positions) is carried.
    Requests that failed with ``err`` are not logged and are skipped; a
    request lost to a reset or timeout may or may not have been served.
    """
    seqs = [[r for r in c.records if r.failure != "err"] for c in clients]
    frontier = {tuple(0 for _ in seqs)}
    for pos, line in enumerate(log_lines):
        nxt = set()
        for state in frontier:
            for ci, seq in enumerate(seqs):
                i = state[ci]
                if i >= len(seq) or seq[i].line != line:
                    continue
                if seq[i].reply is not None and seq[i].reply != replies[pos]:
                    continue
                nxt.add(state[:ci] + (i + 1,) + state[ci + 1:])
        if not nxt:
            served = sorted({
                seq[state[ci]].reply for state in frontier
                for ci, seq in enumerate(seqs)
                if state[ci] < len(seq) and seq[state[ci]].line == line
            } - {None})
            gate.fail(
                f"log line {pos} ({line!r}): served {served}, "
                f"the replay says {replies[pos]!r}"
            )
            return
        frontier = nxt
    for state in frontier:
        if all(
            all(r.reply is None for r in seq[state[ci]:])
            for ci, seq in enumerate(seqs)
        ):
            return
    gate.fail("served replies are missing from the server's log")


def check_dynamic(clients, log_path, graph_path, hopset_path, gate: Gate) -> float:
    """Gate a dynamic run by replaying its log; returns stretch max.

    The replay runs without the exact-hit pair cache: that tier is meant
    to be transparent, so the replies must not change without it.  The
    stretch of a dynamic reply is not bounded by 1+ε (records that an
    update killed stay dead until maintenance), so only the
    never-under-estimate invariant is gated on it.
    """
    from repro.serialize import load_graph, load_hopset
    from repro.serve.server import OracleServer, read_query_log

    graph, hopset = load_graph(graph_path), load_hopset(hopset_path)
    lines = read_query_log(log_path)
    replay = OracleServer(graph, hopset, dynamic=True, pair_cache=0)
    try:
        # one batch: serve_batch cuts it at every mutation, and each reply
        # is a pure function of the graph state and the request whatever
        # the batching, so grouped explorations only make the replay cheaper
        replies = replay.serve_batch(lines)
    finally:
        replay.close()
    match_log(clients, lines, replies, gate)
    # exact distances on the graph as mutated up to each query
    n = graph.n
    live = {}
    for a, b, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        live[key] = min(float(w), live.get(key, np.inf))
    approx, truth = [], []
    pending: list[tuple[int, int, float]] = []

    def settle() -> None:
        if not pending:
            return
        keys = np.array(list(live), dtype=np.int64).reshape(-1, 2)
        wts = np.array(list(live.values()))
        srcs = sorted({u for u, _, _ in pending})
        exact = exact_from(n, keys[:, 0], keys[:, 1], wts, srcs)
        row = {s: i for i, s in enumerate(srcs)}
        for u, v, value in pending:
            approx.append(value)
            truth.append(exact[row[u], v])
        pending.clear()

    for line, reply in zip(lines, replies):
        parts = line.split()
        if parts[0] in ("update", "delete"):
            settle()
            key = (min(int(parts[1]), int(parts[2])), max(int(parts[1]), int(parts[2])))
            if parts[0] == "delete":
                live.pop(key, None)
            else:
                live[key] = float(parts[3])
        elif parts[0] == "dist":
            pending.append((int(parts[1]), int(parts[2]), float(reply.split()[-1])))
    settle()
    return stretch_max(approx, truth, gate, reach=False)
