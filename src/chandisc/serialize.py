"""JSON / CSV import-export.

Complex matrices are stored entry-wise as [re, im] pairs (row-major nested
lists), so every document is plain JSON.  Reading back a serialized state,
channel, POVM, strategy or region reproduces the in-memory value exactly:
floats go through repr round-trip, and strategies are rebuilt from the same
constructor inputs (arms, rates, tau, n), which regenerates identical
thresholds and tables.  Schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .quantum import DensityMatrix, Povm, QuantumChannel
from .regions import ExponentRegion
from .strategies import Arm, SprtStrategy

# ---------------------------------------------------------------------------
# complex matrices
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    """[re, im] float pairs of a complex array, nested as its axes."""
    arr = np.ascontiguousarray(m, dtype=complex)
    return arr.view(np.float64).reshape(arr.shape + (2,)).tolist()


def matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


vector_to_json = matrix_to_json


# ---------------------------------------------------------------------------
# quantum objects
# ---------------------------------------------------------------------------


def state_to_json(s: DensityMatrix) -> dict:
    return {"type": "state", "label": s.label, "matrix": matrix_to_json(s.mat)}


def state_from_json(doc: dict) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(doc["matrix"]), label=doc.get("label", ""))


def channel_to_json(ch: QuantumChannel) -> dict:
    return {
        "type": "channel",
        "label": ch.label,
        "kraus": [matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(doc: dict) -> QuantumChannel:
    return QuantumChannel(
        [matrix_from_json(k) for k in doc["kraus"]], label=doc.get("label", "")
    )


def povm_to_json(m: Povm) -> dict:
    return {
        "type": "povm",
        "label": m.label,
        "effects": [matrix_to_json(e) for e in m.effects],
    }


def povm_from_json(doc: dict) -> Povm:
    return Povm([matrix_from_json(e) for e in doc["effects"]], label=doc.get("label", ""))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def arm_to_json(arm: Arm) -> dict:
    return {
        "input_state": state_to_json(arm.input_state),
        "povm": povm_to_json(arm.povm),
        "ancilla_dim": arm.ancilla_dim,
    }


def arm_from_json(doc: dict) -> Arm:
    return Arm(
        input_state=state_from_json(doc["input_state"]),
        povm=povm_from_json(doc["povm"]),
        ancilla_dim=int(doc["ancilla_dim"]),
    )


def strategy_to_json(strategy: SprtStrategy) -> dict:
    doc = {
        "type": "strategy",
        "adaptive": strategy.adaptive,
        "n0": channel_to_json(strategy.n0),
        "n1": channel_to_json(strategy.n1),
        "rate0": strategy.rate0,
        "rate1": strategy.rate1,
        "tau": strategy.tau,
        "n": strategy.n,
        "block_size": strategy.block_size,
    }
    if strategy.adaptive:
        doc["arm_zero"] = arm_to_json(strategy.arm_zero)
        doc["arm_one"] = arm_to_json(strategy.arm_one)
    else:
        doc["arm"] = arm_to_json(strategy.arm_zero)
    return doc


def strategy_from_json(doc: dict) -> SprtStrategy:
    adaptive = doc["adaptive"]
    return SprtStrategy(
        n0=channel_from_json(doc["n0"]),
        n1=channel_from_json(doc["n1"]),
        arm_zero=arm_from_json(doc["arm_zero" if adaptive else "arm"]),
        arm_one=arm_from_json(doc["arm_one"]) if adaptive else None,
        rate0=float(doc["rate0"]),
        rate1=float(doc["rate1"]),
        tau=float(doc["tau"]),
        n=int(doc["n"]),
        block_size=int(doc.get("block_size", 1)),
    )


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def _num_to_json(x: float):
    # JSON has no inf; use a string sentinel that round-trips
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _num_from_json(x) -> float:
    if isinstance(x, str) and x not in ("inf", "-inf"):
        raise ValueError(f"expected a number, 'inf' or '-inf', got {x!r}")
    return float(x)


def region_to_json(region) -> dict:
    meta = {}
    for k, v in region.metadata.items():
        if isinstance(v, (str, int, bool)):
            meta[k] = v
        elif isinstance(v, float):
            meta[k] = _num_to_json(v)
        elif isinstance(v, (list, tuple)) and all(isinstance(a, (int, float)) for a in v):
            meta[k] = [float(a) for a in v]
        # witnesses and other rich objects are not part of the document
    return {
        "type": "region",
        "kind": region.kind,
        "frontier": [[_num_to_json(x), _num_to_json(y)] for x, y in region.frontier],
        "metadata": meta,
    }


def region_from_json(doc: dict):
    return ExponentRegion(
        kind=doc["kind"],
        frontier=[(_num_from_json(x), _num_from_json(y)) for x, y in doc["frontier"]],
        metadata=dict(doc.get("metadata", {})),
    )


def region_to_csv(region, name: str = "") -> str:
    """Frontier vertices with a commented metadata header."""
    buf = io.StringIO()
    buf.write(f"# kind={region.kind}\n")
    if name:
        buf.write(f"# name={name}\n")
    for k in sorted(region.metadata):
        v = region.metadata[k]
        if isinstance(v, (str, int, float, bool)):
            buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r0_nats_per_use", "r1_nats_per_use"])
    for x, y in region.frontier:
        w.writerow([repr(float(x)), repr(float(y))])
    return buf.getvalue()


def regions_long_csv(named_regions: list[tuple[str, object]]) -> str:
    """Plot-ready long format: one row per (region, vertex)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["region", "kind", "vertex", "r0", "r1"])
    for name, region in named_regions:
        for i, (x, y) in enumerate(region.frontier):
            w.writerow([name, region.kind, i, repr(float(x)), repr(float(y))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# simulation summaries
# ---------------------------------------------------------------------------

SUMMARY_COLUMNS = [
    "hypothesis",
    "trials",
    "errors",
    "censored",
    "error_rate",
    "error_se",
    "mean_stop",
    "stop_se",
    "overshoot",
    "overshoot_se",
    "budget",
    "threshold",
    "wald_bound",
    "wald_ok",
    "exponent_raw",
    "exponent_corrected",
]


def summary_to_csv(summary) -> str:
    """Per-hypothesis rows; the Wald columns compare the observed error rate
    against e^{-A_n} (hypothesis 0) / e^{-B_n} (hypothesis 1) plus 3 SE."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SUMMARY_COLUMNS)
    thresholds = [summary.threshold_a, summary.threshold_b]
    for hyp, stats in enumerate(summary.per_hyp):
        bound = math.exp(-thresholds[hyp])
        ok = stats.error_rate <= bound + 3.0 * stats.error_se
        w.writerow(
            [
                hyp,
                stats.trials,
                stats.errors,
                stats.censored,
                repr(stats.error_rate),
                repr(stats.error_se),
                repr(stats.mean_stop),
                repr(stats.stop_se),
                repr(stats.overshoot),
                repr(stats.overshoot_se),
                summary.budget,
                repr(thresholds[hyp]),
                repr(bound),
                int(ok),
                repr(summary.empirical_exponent(hyp, corrected=False)),
                repr(summary.empirical_exponent(hyp, corrected=True)),
            ]
        )
    return buf.getvalue()


SWEEP_COLUMNS = [
    "n",
    "alpha_hat",
    "beta_hat",
    "exponent_alpha",
    "exponent_beta",
    "bound_exponent_alpha",
    "bound_exponent_beta",
    "constraint",
    "constraint_passed",
    "mean_stop_h0",
    "mean_stop_h1",
]


def sweep_to_csv(records) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for rec in records:
        s = rec.summary
        w.writerow(
            [
                rec.n,
                repr(s.alpha_hat),
                repr(s.beta_hat),
                repr(rec.exponent_alpha),
                repr(rec.exponent_beta),
                repr(rec.bound_exponent_alpha),
                repr(rec.bound_exponent_beta),
                rec.report.constraint,
                int(rec.report.passed),
                repr(s.per_hyp[0].mean_stop),
                repr(s.per_hyp[1].mean_stop),
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline.

    The bytes are those of json.dumps(doc, sort_keys=True, indent=2) + "\n".
    indent makes the stdlib use its pure-Python encoder, so documents of
    dicts with str keys, lists, tuples, str, int, float, bool and None are
    written here instead; any other type or key defers to the stdlib.
    """
    parts: list[str] = []
    try:
        _write(doc, parts, "\n")
    except (_Unsupported, RecursionError):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    parts.append("\n")
    return "".join(parts)


class _Unsupported(Exception):
    pass


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """A float as the stdlib encoder writes it: its repr, which ends in a
    digit unless it is nan or an infinity."""
    text = float.__repr__(x)
    return _NONFINITE[text] if text[-1] in "nf" else text


def _write(x, parts: list[str], nl: str) -> None:
    """Append the indent=2 JSON text of x to parts; nl is a newline and the
    indentation of the line x starts on."""
    t = type(x)
    if t is float:
        parts.append(_float_text(x))
    elif t is str:
        parts.append(_encode_str(x))
    elif x is None:
        parts.append("null")
    elif x is True or x is False:
        parts.append("true" if x else "false")
    elif t is int:
        parts.append(int.__repr__(x))
    elif t is list or t is tuple:
        if not x:
            parts.append("[]")
            return
        inner = nl + "  "
        pair = inner + "  "
        sep = "["
        for item in x:
            if type(item) is list and len(item) == 2 and type(item[0]) is float and type(item[1]) is float:
                # the [re, im] pairs that make up most documents
                parts.append(f"{sep}{inner}[{pair}{_float_text(item[0])},{pair}{_float_text(item[1])}{inner}]")
            else:
                parts.append(sep + inner)
                _write(item, parts, inner)
            sep = ","
        parts.append(nl + "]")
    elif t is dict:
        if not x:
            parts.append("{}")
            return
        if any(type(k) is not str for k in x):
            raise _Unsupported
        inner = nl + "  "
        sep = "{"
        for k in sorted(x):
            parts.append(f"{sep}{inner}{_encode_str(k)}: ")
            _write(x[k], parts, inner)
            sep = ","
        parts.append(nl + "}")
    else:
        raise _Unsupported


def loads(text: str) -> dict:
    return json.loads(text)
