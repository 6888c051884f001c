"""Acceptance gate: eleven end-to-end criteria, one test each.

Each test prints a single `[CRITERION n] PASS/FAIL` line with the
measured quantities, then asserts.  Oracles are independent local
implementations (pair counting, threshold scans, union-find, central
finite differences, correlation sorts); they intentionally share no
code with the package.
"""

import itertools
import math

import numpy as np
from pixel_sets import pixel_sets

from metaseg import (
    analysis,
    cli,
    features,
    metaclf,
    raster,
    scoring,
    segments,
    synth,
)


def report(n, ok, detail):
    print(f"[CRITERION {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def auroc_by_pairs(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    wins = 0.0
    total = 0
    for i in range(s.size):
        if not y[i]:
            continue
        for j in range(s.size):
            if y[j]:
                continue
            total += 1
            if s[i] > s[j]:
                wins += 1.0
            elif s[i] == s[j]:
                wins += 0.5
    return wins / total


def curve_by_scan(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    pos = int(y.sum())
    neg = s.size - pos
    rec, prec, fpr = [], [], []
    for t in sorted(set(s.tolist()), reverse=True):
        sel = s >= t
        tp = int((sel & y).sum())
        fp = int((sel & ~y).sum())
        rec.append(tp / pos)
        prec.append(tp / (tp + fp))
        fpr.append(fp / neg if neg else 0.0)
    return rec, prec, fpr


def ap_by_scan(scores, labels):
    rec, prec, _ = curve_by_scan(scores, labels)
    total = 0.0
    prev = 0.0
    for r, p in zip(rec, prec):
        total += (r - prev) * p
        prev = r
    return total


def fpr95_by_scan(scores, labels):
    rec, _, fpr = curve_by_scan(scores, labels)
    return min(f for r, f in zip(rec, fpr) if r >= 0.95)


def union_find_partition(grid):
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    h, w = grid.shape
    for r in range(h):
        for c in range(w):
            if grid[r, c]:
                parent[(r, c)] = (r, c)
    for r in range(h):
        for c in range(w):
            if not grid[r, c]:
                continue
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < h and 0 <= nc < w and grid[nr, nc]:
                        union((r, c), (nr, nc))
    groups = {}
    for p in parent:
        groups.setdefault(find(p), set()).add(p)
    return {frozenset(g) for g in groups.values()}


def fd_gradient(model, x, y, h=1e-5):
    """Central finite differences of the batch-mean cross entropy."""
    theta = model.to_vector()
    out = np.zeros_like(theta)
    n = np.asarray(x).shape[0]
    for k in range(theta.shape[0]):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        pp = metaclf.predict_batch(model.with_vector(tp), x)
        pm = metaclf.predict_batch(model.with_vector(tm), x)
        out[k] = (metaclf.bce_loss(pp, y) / n - metaclf.bce_loss(pm, y) / n) / (2 * h)
    return out


def min_preactivation_gap(model, x):
    """Finite differences are only valid away from rectifier kinks, so
    configurations whose smallest |hidden pre-activation| is below a
    margin are redrawn; a model without hidden layers has no kink."""
    gap = np.inf
    a = np.asarray(x, dtype=np.float64)
    for w, b in model.layers[:-1]:
        z = a @ w + b
        gap = min(gap, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return gap


def orthogonal_design(rng, n, p):
    """Columns centered, population sigma 1, mutually orthogonal."""
    g = rng.normal(0, 1, (n, p))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q[:, :p] * math.sqrt(n)


def custom_dataset(rows, labels, groups):
    return features.MetricsDataset(
        rows=rows,
        labels=labels,
        group_ids=groups,
        names=[f"m{j}" for j in range(np.asarray(rows).shape[1])],
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_architecture_parameter_counts():
    mlp = metaclf.MlpModel.from_dims((75, *metaclf.HIDDEN_DIMS["mlp"], 1))
    logistic = metaclf.MlpModel.from_dims((75, *metaclf.HIDDEN_DIMS["logistic"], 1))
    total = metaclf.count_parameters(mlp)
    layers = metaclf.parameter_breakdown(mlp)
    log_total = metaclf.count_parameters(logistic)
    ok = total == 17176 and layers == [5700, 5700, 5700, 76] and log_total == 76
    report(1, ok, f"mlp {total} {layers}, logistic {log_total}")


def test_criterion_02_entropy_and_score_invariants():
    rng = np.random.default_rng(2)
    failures = []
    per_c = 34_000  # 3 x 34,000 > 10^5 vectors total
    for c in (2, 19, 150):
        u = rng.random((170, 200, c)) + 1e-9
        pmap = raster.ProbabilityMap(u / u.sum(axis=2, keepdims=True))
        ent = np.concatenate(
            [scoring._entropy(b) for b in raster._array_blocks(pmap.values)]
        )
        sc = scoring.anomaly_score_map(pmap).scores
        assert ent.size == per_c
        if not (ent.min() >= 0.0 and ent.max() <= math.log(c) + 1e-12):
            failures.append(f"entropy range C={c}")
        if not (sc.min() >= 0.0 and sc.max() <= 1.0):
            failures.append(f"score range C={c}")
        one_hot = np.zeros(c)
        one_hot[c // 2] = 1.0
        if abs(scoring.pixel_entropy(one_hot)) > 1e-9:
            failures.append(f"one-hot C={c}")
        if abs(scoring.pixel_entropy(np.full(c, 1.0 / c)) - math.log(c)) > 1e-9:
            failures.append(f"uniform C={c}")
    report(2, not failures, failures or "102,000 vectors within bounds")


def test_criterion_03_uniform_attractor_of_out_distribution_loss():
    # Gradient descent on free logits z, p = softmax(z); the gradient of
    # the per-pixel out-distribution loss with respect to z is p - 1/C.
    c = 19
    rng = np.random.default_rng(33)
    z = rng.normal(0.0, 1.0, c)
    for _ in range(2000):
        ez = np.exp(z - z.max())
        p = ez / ez.sum()
        z -= 1.0 * (p - 1.0 / c)
    ez = np.exp(z - z.max())
    p = ez / ez.sum()
    pmap = raster.ProbabilityMap(p.reshape(1, 1, c))
    mask = raster.LabelMask(np.array([[raster.OOD_LABEL]], dtype=np.uint8))
    dev = float(np.abs(p - 1.0 / c).max())
    gap = abs(scoring.loss_out(pmap, mask) - math.log(c))
    ok = dev < 1e-4 and gap < 1e-6
    report(3, ok, f"max|p - 1/C| {dev:.3g}, loss gap {gap:.3g}")


def test_criterion_04_gradients_match_finite_differences():
    rng = np.random.default_rng(47)
    checked = 0
    worst = 0.0
    while checked < 100:
        n_feat = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 9))
        if checked % 2 == 0:
            weights = rng.normal(0, 1, (n_feat, 1))
            model = metaclf.MlpModel(layers=((weights, [rng.normal()]),))
        else:
            dims = (n_feat, int(rng.integers(3, 8)), int(rng.integers(2, 6)), 1)
            model = metaclf.MlpModel.from_dims(dims, rng)
        x = rng.normal(0, 1, (batch, n_feat))
        y = rng.random(batch) < 0.5
        if min_preactivation_gap(model, x) < 1e-3:
            continue
        g_an = metaclf.gradient(model, x, y)
        g_fd = fd_gradient(model, x, y)
        rel = np.linalg.norm(g_fd - g_an) / max(
            np.linalg.norm(g_fd), np.linalg.norm(g_an), 1e-300
        )
        worst = max(worst, rel)
        checked += 1
    ok = worst < 1e-4
    report(4, ok, f"worst relative error {worst:.3g} over 100 configurations")


def test_criterion_05_curve_metrics_match_exhaustive_oracle():
    rng = np.random.default_rng(5)
    trials = []
    # every mixed label pattern of length <= 8 once (494 of them) ...
    for n in range(2, 9):
        for bits in itertools.product((0, 1), repeat=n):
            if any(bits) and not all(bits):
                trials.append(np.array(bits, dtype=bool))
    # ... then random mixed patterns to reach 1,000 trials
    while len(trials) < 1000:
        n = int(rng.integers(2, 9))
        y = rng.random(n) < 0.5
        if y.any() and not y.all():
            trials.append(y)
    worst = 0.0
    for y in trials:
        s = rng.integers(0, 5, y.size) / 4.0  # coarse grid forces ties
        worst = max(
            worst,
            abs(analysis.auroc(s, y) - auroc_by_pairs(s, y)),
            abs(analysis.auprc(s, y) - ap_by_scan(s, y)),
            abs(analysis.fpr_at_95_tpr(s, y) - fpr95_by_scan(s, y)),
        )
    ok = worst <= 1e-12
    report(5, ok, f"worst deviation {worst:.3g} over {len(trials)} trials")


def test_criterion_06_components_match_union_find_oracle():
    rng = np.random.default_rng(53)
    mismatches = 0
    for trial in range(1000):
        density = 0.3 if trial % 2 == 0 else 0.7
        grid = rng.random((32, 32)) < density
        got = {pixels for pixels, _, _ in pixel_sets(segments.label_image(grid))}
        if got != union_find_partition(grid):
            mismatches += 1
    report(6, mismatches == 0, f"{mismatches} mismatches over 1,000 grids")


def test_criterion_07_mlp_beats_logistic_under_nonlinear_coupling():
    # The coupled generator hides the false-positive signal in a 3-way
    # feature interaction, so a linear meta model should trail the MLP
    # by a clear margin on grouped leave-one-out evaluation.
    spec = synth.SceneSpec(
        dims=(64, 64),
        num_classes=19,
        blob_count=(2, 4),
        blob_size=(5, 12),
        anomaly_entropy=0.85,
        background_entropy=0.2,
        false_blob_rate=3.0,
        nonlinear_coupling=True,
        seed=20,
    )
    samples = synth.generate(spec, 200)
    dataset = features.build_metrics_dataset(samples, segments.ThresholdConfig(0.7))
    cfg = metaclf.TrainConfig(seed=5)
    results = {}
    for kind, hidden_dims in metaclf.HIDDEN_DIMS.items():
        scores = analysis.loo_scores(dataset, cfg, hidden_dims=hidden_dims)
        results[kind] = (
            analysis.auroc(scores, dataset.labels),
            analysis.auprc(scores, dataset.labels),
        )
    (l_roc, l_pr), (m_roc, m_pr) = results["logistic"], results["mlp"]
    ok = m_roc >= l_roc + 0.02 and m_pr >= l_pr + 0.02
    report(
        7,
        ok,
        f"auroc mlp {m_roc:.4f} vs logistic {l_roc:.4f}, "
        f"auprc mlp {m_pr:.4f} vs logistic {l_pr:.4f} "
        f"({len(dataset)} components from 200 scenes)",
    )


def test_criterion_08_incremental_evaluation_consistency():
    # Single informative metric among noise: the metric-count curve must
    # saturate immediately, and the final step must equal a direct
    # full-metric leave-one-out run bit for bit.
    rng = np.random.default_rng(88)
    n_groups, per = 12, 10
    n = n_groups * per
    labels = rng.random(n) < 0.5
    labels[:2] = [True, False]
    rows = rng.normal(0, 1, (n, 8))
    rows[:, 0] = np.where(labels, 1.0, -1.0) + rng.normal(0, 0.8, n)
    dataset = custom_dataset(rows, labels, [f"g{i // per}" for i in range(n)])
    cfg = metaclf.TrainConfig(
        learning_rate=0.05, weight_decay=0.0, epochs=20, batch_size=16, seed=3
    )
    aurocs, auprcs = analysis.incremental_evaluation(dataset, cfg, hidden_dims=())
    full = analysis.loo_scores(dataset, cfg, hidden_dims=())
    full_auroc = analysis.auroc(full, dataset.labels)
    full_auprc = analysis.auprc(full, dataset.labels)
    exact = aurocs[-1] == full_auroc and auprcs[-1] == full_auprc
    sat_gap = abs(aurocs[0] - aurocs[-1])
    ok = exact and sat_gap <= 0.02
    report(
        8,
        ok,
        f"final step bit-identical: {exact}; auroc[1] {aurocs[0]:.4f} vs "
        f"auroc[{len(aurocs)}] {aurocs[-1]:.4f} (gap {sat_gap:.4f})",
    )


def test_criterion_09_ordering_matches_correlation_sort():
    rng = np.random.default_rng(151)
    instances = 0
    mismatches = 0
    while instances < 100:
        p = int(rng.integers(2, 21))
        n = p + int(rng.integers(5, 30))
        x = orthogonal_design(rng, n, p)
        y = rng.random(n) < 0.5
        if y.all() or not y.any():
            continue
        dataset = custom_dataset(x, y, [f"g{i}" for i in range(n)])
        yc = y.astype(np.float64) - y.mean()
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        oracle = tuple(np.argsort(-np.abs(xs.T @ yc), kind="stable").tolist())
        if analysis.lars_order(dataset).ordered_metric_indices != oracle:
            mismatches += 1
        instances += 1
    report(9, mismatches == 0, f"{mismatches} mismatches over 100 instances")


def test_criterion_10_fraction_split_partition():
    ood, ign = raster.OOD_LABEL, raster.IGNORE_LABEL
    counts = [(0, 0), (10, 0), (20, 0), (50, 0), (80, 0), (90, 0), (100, 0),
              (20, 20)]
    masks = []
    for n_ood, n_ign in counts:
        arr = np.zeros(100, dtype=np.uint8)
        arr[:n_ood] = ood
        arr[n_ood:n_ood + n_ign] = ign
        masks.append(raster.LabelMask(arr.reshape(10, 10)))
    fractions = [analysis.ood_fraction(m) for m in masks]
    expected = [n_ood / (100 - n_ign) for n_ood, n_ign in counts]
    low, high, rest = analysis.split_by_ood_fraction(masks, 0.2, 0.8)
    partition_ok = (
        sorted(low) == [0, 1, 2]
        and sorted(high) == [4, 5, 6]
        and sorted(rest) == [3, 7]
    )
    fractions_ok = fractions == expected
    ok = partition_ok and fractions_ok
    report(
        10,
        ok,
        f"fractions {['%g' % f for f in fractions]}, "
        f"low {sorted(low)} high {sorted(high)} rest {sorted(rest)}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    fast = ["--epochs", "10"]
    synth_flags = [
        "--count", "4", "--seed", "9", "--height", "24", "--width", "24",
        "--classes", "4", "--blob-min", "1", "--blob-max", "2",
        "--size-min", "3", "--size-max", "6", "--false-rate", "1.5",
    ]
    scenes = [tmp_path / "scenes_a", tmp_path / "scenes_b"]
    scored = [tmp_path / "scored_a", tmp_path / "scored_b"]
    out = {name: [tmp_path / f"{name}_a", tmp_path / f"{name}_b"]
           for name in ("segments", "metrics", "model", "eval", "roc", "pr",
                        "loo", "loo_scores", "lars", "incr", "incr_svg",
                        "proxy", "pixel")}
    for i in (0, 1):
        runs = [
            ["synth", "--out", str(scenes[i])] + synth_flags,
            ["score", "--in", str(scenes[i]), "--out", str(scored[i])],
            ["segments", "--in", str(scenes[i]), "--out", str(out["segments"][i])],
            ["metrics", "--in", str(scenes[i]), "--out", str(out["metrics"][i])],
            ["train-meta", "--mu", str(out["metrics"][i]),
             "--out", str(out["model"][i])] + fast,
            ["eval-meta", "--model", str(out["model"][i]),
             "--mu", str(out["metrics"][i]), "--out", str(out["eval"][i]),
             "--roc-svg", str(out["roc"][i]), "--pr-svg", str(out["pr"][i])],
            ["loo", "--mu", str(out["metrics"][i]), "--out", str(out["loo"][i]),
             "--scores-csv", str(out["loo_scores"][i])] + fast,
            ["lars", "--mu", str(out["metrics"][i]), "--out", str(out["lars"][i])],
            ["incremental", "--mu", str(out["metrics"][i]),
             "--out", str(out["incr"][i]), "--svg", str(out["incr_svg"][i])] + fast,
            ["filter-proxy", "--in", str(scenes[i]), "--out", str(out["proxy"][i])],
            ["eval-pixel", "--scores", str(scored[i]), "--masks", str(scenes[i]),
             "--out", str(out["pixel"][i])],
        ]
        assert len(runs) == 11
        for args in runs:
            assert cli.run(args) == 0, args
    differing = []
    for d_a, d_b in (scenes, scored):
        for pa in sorted(d_a.iterdir()):
            if pa.read_bytes() != (d_b / pa.name).read_bytes():
                differing.append(pa.name)
    for name, (pa, pb) in out.items():
        if pa.read_bytes() != pb.read_bytes():
            differing.append(name)
    report(11, not differing, differing or "all 11 subcommands byte-identical")
