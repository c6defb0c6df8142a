"""Shape-criteria validation: the one statement of each criterion.

The reproduction does not chase the paper's absolute numbers (the
substrate differs); it must reproduce the *shape* of every result.
This module turns those shape criteria into checkable predicates over
the table/figure results; the paper-table benchmarks
(``benchmarks/test_table*.py``, ``test_figure4_bandwidth.py``) assert
every one of them and sink the rendered report next to the table.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.analytic.bounds import traffic_lower_bound, traffic_upper_bound
from repro.analytic.planner import paper_params
from repro.experiments.figures import BandwidthSweepResult
from repro.experiments.tables import TableResult


@dataclasses.dataclass(frozen=True)
class Criterion:
    """One shape criterion with its verdict."""

    name: str
    passed: bool
    detail: str = ""


def _crit(name: str, passed: bool, detail: str = "") -> Criterion:
    return Criterion(name=name, passed=bool(passed), detail=detail)


def validate_table2(result: TableResult) -> List[Criterion]:
    p, f = result.rows["partial"], result.rows["full"]
    return [
        _crit(
            "partial step cheaper than full",
            p["step_latency_ms"] < f["step_latency_ms"],
            f"{p['step_latency_ms']:.0f} ms vs {f['step_latency_ms']:.0f} ms",
        ),
        _crit(
            "partial needs no more steps than full",
            p["mean_steps"] <= f["mean_steps"] + 0.25,
            f"{p['mean_steps']:.2f} vs {f['mean_steps']:.2f}",
        ),
    ]


def validate_table3(result: TableResult) -> List[Criterion]:
    avg = result.averages()
    checks = [
        _crit(
            "partial >= full throughput",
            avg["partial_fps"] >= avg["full_fps"] - 0.05,
            f"{avg['partial_fps']:.2f} vs {avg['full_fps']:.2f} FPS",
        ),
        _crit(
            "ShadowTutor > 3x naive",
            avg["partial_fps"] > 3 * avg["naive_fps"],
            f"{avg['partial_fps'] / avg['naive_fps']:.2f}x",
        ),
    ]
    worst = min(
        row["partial_fps"] / row["naive_fps"] for row in result.rows.values()
    )
    checks.append(
        _crit("every category > 2.5x naive", worst > 2.5, f"worst {worst:.2f}x")
    )
    checks.append(
        _crit(
            "naive calibrated to the paper's 2.09 FPS",
            abs(avg["naive_fps"] - 2.09) <= 0.2,
            f"{avg['naive_fps']:.2f} FPS",
        )
    )
    return checks


def validate_table4(result: TableResult) -> List[Criterion]:
    rows = result.rows
    reduction = 1 - rows["partial"]["total_mb"] / rows["naive"]["total_mb"]
    return [
        _crit(
            "per-key-frame ordering partial < naive < full",
            rows["partial"]["total_mb"]
            < rows["naive"]["total_mb"]
            < rows["full"]["total_mb"],
            f"{rows['partial']['total_mb']:.3f} / {rows['naive']['total_mb']:.3f} "
            f"/ {rows['full']['total_mb']:.3f} MB",
        ),
        _crit(
            "matches paper exactly (configuration-level)",
            abs(rows["partial"]["total_mb"] - 3.032) < 0.002
            and abs(rows["full"]["total_mb"] - 4.483) < 0.002
            and abs(rows["naive"]["total_mb"] - 3.516) < 0.002,
        ),
        _crit(
            "partial cuts naive's round trip by ~13.77% (section 6.2)",
            abs(reduction - 0.1377) <= 0.01,
            f"{100 * reduction:.2f}%",
        ),
    ]


def validate_table5(result: TableResult, strict: bool = True) -> List[Criterion]:
    rows = result.rows
    avg = result.averages()
    params = paper_params()
    lo, hi = traffic_lower_bound(params), traffic_upper_bound(params)
    checks = [
        _crit(
            "people easier than animals (fixed camera)",
            rows["fixed-people"]["partial_kf_pct"]
            <= rows["fixed-animals"]["partial_kf_pct"],
        ),
        _crit(
            "traffic < naive / 3",
            avg["partial_traffic_mbps"] < avg["naive_traffic_mbps"] / 3,
            f"{avg['partial_traffic_mbps']:.2f} vs {avg['naive_traffic_mbps']:.2f} Mbps",
        ),
        _crit(
            "key frames sparse everywhere (< 20%)",
            all(r["partial_kf_pct"] < 20 for r in rows.values()),
        ),
        _crit(
            "every category inside the analytic traffic band (Eqs. 8 / 12)",
            all(
                lo * 0.9 <= r["partial_traffic_mbps"] <= hi * 1.1
                for r in rows.values()
            ),
            f"{lo:.2f} .. {hi:.2f} Mbps",
        ),
    ]
    if strict:
        checks += [
            _crit(
                "street hardest (fixed camera)",
                rows["fixed-animals"]["partial_kf_pct"]
                < rows["fixed-street"]["partial_kf_pct"],
            ),
            _crit(
                "street hardest (moving camera)",
                rows["moving-people"]["partial_kf_pct"]
                < rows["moving-street"]["partial_kf_pct"],
            ),
        ]
    return checks


def validate_table6(result: TableResult, strict: bool = True) -> List[Criterion]:
    avg = result.averages()
    gap = 30 if strict else 15
    return [
        _crit("wild near-useless (< 35 mIoU)", avg["wild_miou_pct"] < 35),
        _crit(
            f"shadow education gains > {gap} points over wild",
            avg["p1_miou_pct"] > avg["wild_miou_pct"] + gap,
            f"{avg['p1_miou_pct']:.1f} vs {avg['wild_miou_pct']:.1f}",
        ),
        _crit(
            "async staleness cheap (P-1 - P-8 small)",
            avg["p1_miou_pct"] - avg["p8_miou_pct"] < (6 if strict else 10),
            f"{avg['p1_miou_pct'] - avg['p8_miou_pct']:.1f} points",
        ),
        _crit(
            "partial >= full accuracy",
            avg["p1_miou_pct"] >= avg["f1_miou_pct"] - (1.0 if strict else 4.0),
            f"{avg['p1_miou_pct']:.1f} vs {avg['f1_miou_pct']:.1f}",
        ),
        _crit("naive == 100 (teacher is the reference)",
              abs(avg["naive_miou_pct"] - 100.0) < 1e-6),
    ]


def validate_figure4(result: BandwidthSweepResult) -> List[Criterion]:
    bw = result.bandwidths_mbps
    naive = result.series["naive"]
    checks = [
        _crit(
            "naive monotone in bandwidth",
            all(b >= a for a, b in zip(naive, naive[1:])),
        )
    ]
    if 80.0 in bw and 40.0 in bw:
        flat = all(
            result.series[name][bw.index(40.0)]
            > 0.85 * result.series[name][bw.index(80.0)]
            for name in result.paper["videos"]
            if name in result.series
        )
        checks.append(_crit("ShadowTutor flat down to 40 Mbps", flat))
    inside = all(
        lo * 0.9 <= value <= hi * 1.05
        for name in result.paper["videos"]
        if name in result.series
        for value, (lo, hi) in zip(result.series[name], result.bounds)
    )
    checks.append(_crit("all points inside analytic envelope", inside))
    checks.append(
        _crit(
            "far above naive at the narrowest link (> 1.5x)",
            all(
                result.series[name][0] > 1.5 * naive[0]
                for name in result.paper["videos"]
                if name in result.series
            ),
        )
    )
    if "softball" in result.series and "southbeach" in result.series:
        checks.append(
            _crit(
                "fewer key frames hold throughput better at low bandwidth",
                result.series["softball"][0]
                >= result.series["southbeach"][0] - 0.3,
            )
        )
    return checks


def render_report(criteria: Dict[str, List[Criterion]]) -> str:
    """Render a pass/fail report over all validated experiments."""
    lines = []
    total = passed = 0
    for experiment, checks in criteria.items():
        lines.append(f"{experiment}:")
        for c in checks:
            total += 1
            passed += c.passed
            mark = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{detail}")
    lines.append(f"shape criteria: {passed}/{total} passed")
    return "\n".join(lines)
