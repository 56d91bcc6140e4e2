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
        n=doc["n"],
        block_size=doc.get("block_size", 1),
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
        if isinstance(v, (str, int, np.integer)):
            meta[k] = v
        elif isinstance(v, float):
            meta[k] = _num_to_json(v)
        elif isinstance(v, (list, tuple)) and all(isinstance(a, (int, float, np.integer)) for a in v):
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


def _csv(header: list[str], rows, comments=()) -> str:
    """CSV text: one "# " line per comment, the header, then the rows.
    Float cells, numpy floats included, are written by float.__repr__, which
    round-trips."""
    buf = io.StringIO()
    buf.writelines(f"# {c}\n" for c in comments)
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([float.__repr__(x) if isinstance(x, float) else x for x in row] for row in rows)
    return buf.getvalue()


def region_to_csv(region, name: str = "") -> str:
    """Frontier vertices with a commented metadata header."""
    comments = [f"kind={region.kind}"] + ([f"name={name}"] if name else [])
    comments += [f"{k}={v}" for k, v in sorted(region.metadata.items())
                 if isinstance(v, (str, int, float, np.integer))]
    rows = [[float(x), float(y)] for x, y in region.frontier]
    return _csv(["r0_nats_per_use", "r1_nats_per_use"], rows, comments)


def regions_long_csv(named_regions: list[tuple[str, object]]) -> str:
    """Plot-ready long format: one row per (region, vertex)."""
    rows = [
        [name, region.kind, i, float(x), float(y)]
        for name, region in named_regions
        for i, (x, y) in enumerate(region.frontier)
    ]
    return _csv(["region", "kind", "vertex", "r0", "r1"], rows)


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
    rows = []
    for hyp, (stats, threshold) in enumerate(zip(summary.per_hyp, [summary.threshold_a, summary.threshold_b])):
        bound = math.exp(-threshold)
        rows.append([
            hyp,
            stats.trials,
            stats.errors,
            stats.censored,
            stats.error_rate,
            stats.error_se,
            stats.mean_stop,
            stats.stop_se,
            stats.overshoot,
            stats.overshoot_se,
            summary.budget,
            threshold,
            bound,
            int(stats.error_rate <= bound + 3.0 * stats.error_se),
            summary.empirical_exponent(hyp, corrected=False),
            summary.empirical_exponent(hyp, corrected=True),
        ])
    return _csv(SUMMARY_COLUMNS, rows)


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
    rows = [
        [
            rec.n,
            rec.summary.alpha_hat,
            rec.summary.beta_hat,
            rec.exponent_alpha,
            rec.exponent_beta,
            rec.bound_exponent_alpha,
            rec.bound_exponent_beta,
            rec.report.constraint,
            int(rec.report.passed),
            rec.summary.per_hyp[0].mean_stop,
            rec.summary.per_hyp[1].mean_stop,
        ]
        for rec in records
    ]
    return _csv(SWEEP_COLUMNS, rows)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline.

    The bytes are those of json.dumps(doc, sort_keys=True, indent=2) + "\n"
    on documents of dicts with str keys, lists, tuples, str, int, float,
    bool and None, which it writes itself: indent makes the stdlib use its
    pure-Python encoder.  numpy integer and floating scalars are written as
    the int and float they hold.  Any other type and any key that is not a
    str raise TypeError, and a circular reference RecursionError.
    """
    parts: list[str] = []
    _write(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


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
            raise TypeError("keys must be str")
        inner = nl + "  "
        sep = "{"
        for k in sorted(x):
            parts.append(f"{sep}{inner}{_encode_str(k)}: ")
            _write(x[k], parts, inner)
            sep = ","
        parts.append(nl + "}")
    elif isinstance(x, (float, np.floating)):
        parts.append(_float_text(float(x)))
    elif isinstance(x, (int, np.integer)):
        parts.append(int.__repr__(int(x)))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def loads(text: str) -> dict:
    return json.loads(text)
