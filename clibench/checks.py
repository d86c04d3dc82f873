"""Output checks, run after the timed passes.

Each check recomputes a quantity apart from coastrank (its own file parser,
pair counts, weakest-link loop, brute force over S_7 and scipy's linprog), or
tests a property the method must have. ``check`` returns one message per
failed check; an empty list means every check passed.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from workloads import dataset_dirs

TOL = 1e-9
CSV_TOL = 1e-8  # the CLI writes floats with 12 significant digits
#: Lowest accepted AUC of anomaly scores, uniform query rows against mixture rows.
MIN_UNIFORM_AUC = 0.95


# --- independent readers ------------------------------------------------------


def read_ranks(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(N, n) 0-based rank matrix and labels of a labeled ``ordering`` file."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    order, labels = rows[:, :-1] - 1, rows[:, -1]
    ranks = np.empty_like(order)
    ranks[np.arange(len(order))[:, None], order] = np.arange(order.shape[1])
    return ranks, labels


def pair_bits(ranks: np.ndarray) -> np.ndarray:
    """Bit (i before j) for every pair i < j, lexicographic pair order."""
    i, j = np.triu_indices(ranks.shape[1], k=1)
    return ranks[:, i] < ranks[:, j]


def cell_mask(ranks: np.ndarray, constraints) -> np.ndarray:
    mask = np.ones(len(ranks), dtype=bool)
    for a, b in constraints:
        mask &= ranks[:, a - 1] < ranks[:, b - 1]
    return mask


def leaves(doc: dict) -> list[dict]:
    return [node for node in doc["nodes"] if node["children"] is None]


def cell_key(node: dict) -> frozenset:
    return frozenset(map(tuple, node["constraints"]))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- shared recomputations ----------------------------------------------------


def weakest_link(doc: dict) -> list[frozenset]:
    """Frontiers of the weakest-link collapse sequence of a tree document.

    Collapses, at each step, the node with both children in the frontier
    whose collapse raises the criterion sum(weight * v_hat) least; ties go to
    the smaller node id.
    """
    nodes = {node["id"]: node for node in doc["nodes"]}
    contrib = {i: node["weight"] * node["v_hat"] for i, node in nodes.items()}
    parent = {c: i for i, node in nodes.items() for c in node["children"] or ()}
    frontier = {i for i, node in nodes.items() if node["children"] is None}
    seq = [frozenset(frontier)]
    while len(frontier) > 1:
        ready = sorted({parent[f] for f in frontier if f in parent
                        and all(c in frontier for c in nodes[parent[f]]["children"])})
        victim = min(ready, key=lambda p: (contrib[p] - contrib[nodes[p]["children"][0]]
                                           - contrib[nodes[p]["children"][1]], p))
        frontier -= set(nodes[victim]["children"])
        frontier.add(victim)
        seq.append(frozenset(frontier))
    return seq


def criterion(doc: dict, frontier) -> float:
    nodes = {node["id"]: node for node in doc["nodes"]}
    return float(sum(nodes[i]["weight"] * nodes[i]["v_hat"] for i in sorted(frontier)))


def all_rankings(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def kendall_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kendall distances between rank-matrix rows of a and b (integer)."""
    xa, xb = pair_bits(a).astype(np.int64), pair_bits(b).astype(np.int64)
    return xa @ (1 - xb).T + (1 - xa) @ xb.T


def exact_median(ranks: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Lexicographically smallest rank vector of least total distance to the rows."""
    totals = kendall_cross(candidates, ranks).sum(axis=1)
    return candidates[np.flatnonzero(totals == totals.min())[0]]


# --- per-workload checks ------------------------------------------------------


def _check_digests(digests: list[dict]) -> list[str]:
    first = digests[0]
    return [f"{name}: pass {k + 1} on this data set differs from its first"
            for k, d in enumerate(digests[1:], 1) for name in first if d[name] != first[name]]


def _check_tree_doc(label: str, doc: dict, ranks: np.ndarray, bits: np.ndarray) -> list[str]:
    """Leaf weights, v_hat and median local optimality of one tree document."""
    fails = []
    n_rows = len(ranks)
    cover = np.zeros(n_rows, dtype=np.int64)
    for leaf in leaves(doc):
        mask = cell_mask(ranks, leaf["constraints"])
        cover += mask
        m = int(mask.sum())
        if not close(leaf["weight"], m / n_rows):
            fails.append(f"{label} leaf {leaf['id']}: weight {leaf['weight']} != {m}/{n_rows}")
        counts = bits[mask].sum(axis=0, dtype=np.int64)
        # pair_sum counts every disagreeing pair of rows once per item pair, so
        # v_hat is half the mean Kendall distance between two distinct rows
        v_hat = float((counts * (m - counts)).sum()) / (m * (m - 1)) if m >= 2 else 0.0
        if not close(leaf["v_hat"], v_hat):
            fails.append(f"{label} leaf {leaf['id']}: v_hat {leaf['v_hat']} != {v_hat}")
        if m == 0 or leaf["median"] is None:
            fails.append(f"{label} leaf {leaf['id']}: empty cell or no median")
            continue
        p = counts / m  # P(i before j) inside the leaf, i < j
        order = np.argsort(np.asarray(leaf["median"]))  # items, most preferred first
        i, j = np.triu_indices(ranks.shape[1], k=1)
        pmat = np.full((ranks.shape[1],) * 2, 0.5)
        pmat[i, j], pmat[j, i] = p, 1 - p
        swap_gain = 2 * pmat[order[:-1], order[1:]] - 1  # risk change of each adjacent swap
        if swap_gain.min() < -TOL:
            r = int(np.argmin(swap_gain))
            fails.append(f"{label} leaf {leaf['id']}: swapping ranks {r + 1},{r + 2} of the "
                         f"median lowers its risk by {-swap_gain[r]:.3g}")
        # where the in-leaf majority is a strict linear order (its win counts
        # are 0..n-1), the Kemeny median is that order: its risk is sum min(p, 1-p)
        wins = (pmat > 0.5).sum(axis=1)
        if np.all(2 * counts != m) and sorted(wins) == list(range(len(wins))):
            med = np.asarray(leaf["median"]) - 1
            risk = float(np.where(med[i] < med[j], 1 - p, p).sum())
            least = float(np.minimum(p, 1 - p).sum())
            if not close(risk, least):
                fails.append(f"{label} leaf {leaf['id']}: median is not the majority order: "
                             f"risk {risk} > sum min(p, 1-p) = {least}")
    if np.any(cover != 1):
        fails.append(f"{label}: leaves do not tile the fit rows")
    return fails


def check_fit(d: Path, lam: float) -> list[str]:
    ranks, _ = read_ranks(d / "fit.rnk")
    bits = pair_bits(ranks)
    tree = json.loads((d / "tree.json").read_text())
    sub = json.loads((d / "sub.json").read_text())
    fails = _check_tree_doc("tree.json", tree, ranks, bits)
    fails += _check_tree_doc("sub.json", sub, ranks, bits)

    crit = [float(row["criterion"]) for row in read_csv(d / "trace.csv")]
    for k in range(1, len(crit)):
        if crit[k] > crit[k - 1] * (1 + TOL):
            fails.append(f"trace.csv: criterion rises at iteration {k}: {crit[k - 1]} -> {crit[k]}")

    seq = weakest_link(tree)
    cost = [criterion(tree, f) + lam * len(f) for f in seq]
    nodes = {node["id"]: node for node in tree["nodes"]}
    chosen = {cell_key(leaf) for leaf in leaves(sub)}
    match = [k for k, f in enumerate(seq) if {cell_key(nodes[i]) for i in f} == chosen]
    if not match:
        fails.append("sub.json: leaves are no frontier of the weakest-link sequence")
    elif cost[match[0]] > min(cost) + TOL:
        fails.append(f"sub.json: penalized criterion {cost[match[0]]} > minimum {min(cost)}")
    return fails


def check_eval(d: Path) -> list[str]:
    from scipy.optimize import linprog

    ranks, _ = read_ranks(d / "fit.rnk")
    tree = json.loads((d / "tree.json").read_text())
    rows = read_csv(d / "report.csv")
    fails = []
    try:
        w = [float(r["w"]) for r in rows]
        e = [float(r["e"]) for r in rows]
        e1 = [float(r["e_prime"]) for r in rows]
    except ValueError as exc:
        return [f"report.csv: blank or malformed value ({exc})"]
    seq = weakest_link(tree)
    if [int(r["leaves"]) for r in rows] != [len(f) for f in seq]:
        fails.append("report.csv: leaf counts differ from the weakest-link sequence")
        return fails
    for k in range(len(rows)):
        if w[k] > e[k] + TOL:
            fails.append(f"report.csv step {k}: w {w[k]} > e {e[k]}")
        if e[k] > 2 * e1[k] + TOL:
            fails.append(f"report.csv step {k}: e {e[k]} > 2 e' {2 * e1[k]}")
        if k and e[k] < e[k - 1] - TOL:
            fails.append(f"report.csv step {k}: e falls from {e[k - 1]} to {e[k]}")

    perms = all_rankings(ranks.shape[1])
    mean_dist = kendall_cross(perms, ranks).sum(axis=1) / len(ranks)
    best = float(mean_dist.min())
    for name, value in (("w", w[-1]), ("e", e[-1])):
        if not close(value, best, CSV_TOL):
            fails.append(f"report.csv root: {name} {value} != brute-force minimum {best}")

    # one intermediate step, solved again as a linear program
    k = len(seq) // 2
    nodes = {node["id"]: node for node in tree["nodes"]}
    support, counts = np.unique(ranks, axis=0, return_counts=True)
    atoms: dict[tuple, float] = {}
    for nid in sorted(seq[k]):
        mask = cell_mask(ranks, nodes[nid]["constraints"])
        if nodes[nid]["median"] is not None:
            med = np.asarray(nodes[nid]["median"]) - 1
        else:
            med = exact_median(ranks[mask], perms)
        atoms[tuple(med)] = atoms.get(tuple(med), 0.0) + mask.sum() / len(ranks)
    targets = np.array(list(atoms), dtype=np.int64)
    cost = kendall_cross(support, targets).astype(np.float64)
    a, b = counts / len(ranks), np.array(list(atoms.values()))
    m1, m2 = cost.shape
    eq = np.zeros((m1 + m2, m1 * m2))
    for r in range(m1):
        eq[r, r * m2:(r + 1) * m2] = 1
    for c in range(m2):
        eq[m1 + c, c::m2] = 1
    lp = linprog(cost.ravel(), A_eq=eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
                 method="highs")
    if lp.status != 0:
        fails.append(f"linprog failed at step {k}: {lp.message}")
    elif not close(lp.fun, w[k], 1e-7):
        fails.append(f"report.csv step {k}: w {w[k]} != linprog optimum {lp.fun}")
    return fails


def check_score(d: Path, uniform_label: int) -> list[str]:
    fit, _ = read_ranks(d / "fit.rnk")
    query, query_labels = read_ranks(d / "query.rnk")
    sub = json.loads((d / "sub.json").read_text())
    depths = read_csv(d / "depths.csv")
    scores = read_csv(d / "scores.csv")
    fails = []
    if len(depths) != len(query) or len(scores) != len(query):
        return [f"depths/scores rows {len(depths)}/{len(scores)} != {len(query)} queries"]
    top = fit.shape[1] * (fit.shape[1] - 1) // 2
    fbits, qbits = pair_bits(fit).astype(np.int64), pair_bits(query).astype(np.int64)

    def mean_depth(q: np.ndarray, f: np.ndarray) -> np.ndarray:
        """C(n,2) minus the mean Kendall distance of each q row to the f rows."""
        if len(f) == 0:
            return np.zeros(len(q))
        c = f.sum(axis=0)
        return top - (q @ (len(f) - c) + (1 - q) @ c) / len(f)

    expected_cell = np.full(len(query), -1)
    local = np.zeros(len(query))
    for leaf in leaves(sub):
        qmask = cell_mask(query, leaf["constraints"])
        expected_cell[qmask] = leaf["id"]
        local[qmask] = mean_depth(qbits[qmask], fbits[cell_mask(fit, leaf["constraints"])])
    global_ = mean_depth(qbits, fbits)
    for k, (dr, sr) in enumerate(zip(depths, scores)):
        if int(dr["index"]) != k or int(sr["index"]) != k:
            fails.append(f"row {k}: index {dr['index']}/{sr['index']}")
            break
        if int(dr["cell"]) != expected_cell[k] or int(sr["cell"]) != expected_cell[k]:
            fails.append(f"query {k}: cell {dr['cell']}/{sr['cell']}, leaf is {expected_cell[k]}")
        if not close(float(dr["local_depth"]), local[k], CSV_TOL):
            fails.append(f"query {k}: local depth {dr['local_depth']} != {local[k]}")
        if not close(float(dr["global_depth"]), global_[k], CSV_TOL):
            fails.append(f"query {k}: global depth {dr['global_depth']} != {global_[k]}")
        if not close(float(sr["anomaly_score"]), -float(dr["local_depth"]), CSV_TOL):
            fails.append(f"query {k}: anomaly score {sr['anomaly_score']} != -local depth")
        if dr["label"] != str(query_labels[k]) or sr["label"] != dr["label"]:
            fails.append(f"query {k}: label {dr['label']}/{sr['label']} != {query_labels[k]}")
        if len(fails) > 20:
            break

    score = np.array([float(r["anomaly_score"]) for r in scores])
    uniform = query_labels == uniform_label
    if uniform.any() and (~uniform).any():
        diff = score[uniform][:, None] - score[~uniform][None, :]
        auc = float((diff > 0).mean() + 0.5 * (diff == 0).mean())
        if auc < MIN_UNIFORM_AUC:
            fails.append(f"anomaly AUC of uniform queries {auc:.4f} < {MIN_UNIFORM_AUC}")
    else:
        fails.append("query file lacks uniform or mixture rows")
    return fails


def check(workload, d: Path, digests: dict[int, list[dict]]) -> list[str]:
    """Every check of one workload on the outputs left in the data set directories of ``d``.

    ``digests`` maps each data set that a pass ran on to the digests of its
    outputs after each of those passes; data sets no pass ran on are skipped.
    """
    fails = []
    for k, dk in enumerate(dataset_dirs(workload, d)):
        if k not in digests:
            continue
        fails += [f"{dk.name}: {msg}" for msg in _check_digests(digests[k])]
        try:
            if "eval" in workload.commands:
                found = check_eval(dk)
            elif "depth" in workload.commands:
                found = check_score(dk, workload.uniform_label)
            else:
                found = check_fit(dk, workload.lam)
        except Exception as exc:  # e.g. an output that a failed command never wrote
            found = [f"outputs not checkable: {type(exc).__name__}: {exc}"]
        fails += [f"{dk.name}: {msg}" for msg in found]
    return fails
