"""Per-layer metrics from the span files `tracer.py` writes.

A layer is a flagdyn module; a span's layer is the prefix of its name.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

LAYERS = ("rational", "lie_core", "flag_space", "curvature", "models",
          "classification", "dynamics", "checks", "cli")
# Named spans reported on their own, as `<metric>.calls` and `<metric>.self_s`.
SPANS = {
    "rational.mat_mul": ("rational.mat_mul",),
    "rational.adjugate3": ("rational.adjugate3",),
    "rational.det3": ("rational.det3",),
    "rational.mat_scale": ("rational.mat_scale",),
    "rational.dot": ("rational.dot",),
    "rational.elim": ("rational.rref", "rational.nullspace", "rational.solve",
                      "rational.rank"),
    "lie_core.conjugate": ("lie_core.conjugate",),
    "lie_core.bracket": ("lie_core.bracket",),
    "lie_core.GroupElem_init": ("lie_core.GroupElem_init",),
    "lie_core.quotient_adjoint_bruteforce": ("lie_core.quotient_adjoint_bruteforce",),
    "lie_core.exp_float": ("lie_core.exp_float",),
    "flag_space.act": ("flag_space.act",),
    "flag_space.region_classify": ("flag_space.region_classify",),
    "flag_space.flag_from_coords": ("flag_space.flag_from_coords",),
    "flag_space.fundamental_vector": ("flag_space.fundamental_vector",),
    "curvature.contact_test": ("curvature.contact_test",),
    "curvature.bracket_of_fields": ("curvature.bracket_of_fields",),
    "curvature.curvature_action": ("curvature.curvature_action",),
    "curvature.curvature_action_dense": ("curvature.curvature_action_dense",),
    "curvature.flow_commutator_defect": ("curvature.flow_commutator_defect",),
    "models.transporter": ("models.transporter",),
    "models.frame_at": ("models.frame_at",),
    "dynamics.iterate": ("dynamics.iterate",),
    "dynamics.tangent_rates": ("dynamics.tangent_rates",),
    "dynamics.hyperbolicity_report": ("dynamics.hyperbolicity_report",),
    "dynamics.write_trajectory_csv": ("dynamics.write_trajectory_csv",),
}
CHECK_PREFIX = "checks.check:"


def _load(path):
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return meta, name, parent, dur, dur - covered


def layer_metrics(span_files, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass: the span files of its
    invocations, and the pass's traced work time."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    check_s: list[float] = []
    raised: dict[str, int] = {}
    counters = {"fraction_new": 0, "conjugate_max_bits": 0, "csv_bytes": 0}
    interior_returned = interior_tries = 0
    for path in span_files:
        meta, name, parent, dur, own = _load(path)
        names = meta["names"]
        counts = np.bincount(name, minlength=len(names))
        owns = np.bincount(name, weights=own, minlength=len(names))
        for nid, span in enumerate(names):
            calls[span] = calls.get(span, 0) + int(counts[nid])
            self_s[span] = self_s.get(span, 0.0) + float(owns[nid])
            if span.startswith(CHECK_PREFIX):
                check_s += dur[name == nid].tolist()
        for span, n in meta["raised"].items():
            raised[span] = raised.get(span, 0) + n
        counters["fraction_new"] += meta["fraction_new"]
        counters["csv_bytes"] += meta["csv_bytes"]
        counters["conjugate_max_bits"] = max(counters["conjugate_max_bits"],
                                             meta["conjugate_max_bits"])
        if "checks.rand_interior_flag" in names and "flag_space.region_classify" in names:
            rif = names.index("checks.rand_interior_flag")
            rc = names.index("flag_space.region_classify")
            inside = np.zeros(len(name), dtype=bool)
            has_parent = parent >= 0
            inside[has_parent] = name[parent[has_parent]] == rif
            interior_tries += int((inside & (name == rc)).sum())
            interior_returned += int((name == rif).sum())
        interior_returned -= meta["raised"].get("checks.rand_interior_flag", 0)

    out = {}
    for layer in LAYERS:
        spans = [s for s in calls if s.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(calls[s] for s in spans)
        out[f"{layer}.self_s"] = sum(self_s[s] for s in spans)
    for metric, spans in SPANS.items():
        out[f"{metric}.calls"] = sum(calls.get(s, 0) for s in spans)
        out[f"{metric}.self_s"] = sum(self_s.get(s, 0.0) for s in spans)
    out["exact.fraction_new"] = counters["fraction_new"]
    out["lie_core.conjugate.max_bits"] = counters["conjugate_max_bits"]
    out["lie_core.GroupElem.rejects"] = raised.get("lie_core.GroupElem_init", 0)
    out["dynamics.csv_bytes"] = counters["csv_bytes"]
    if check_s:
        deciles = statistics.quantiles(check_s, n=10, method="inclusive")
        out["checks.check_s.p50"] = statistics.median(check_s)
        out["checks.check_s.p90"] = deciles[8]
        out["checks.slowest_share"] = max(check_s) / pass_s
    else:
        out["checks.check_s.p50"] = out["checks.check_s.p90"] = 0.0
        out["checks.slowest_share"] = 0.0
    out["checks.interior_accept_ratio"] = (
        interior_returned / interior_tries if interior_tries else 0.0)
    return out
