"""Self-contained HTML run reports.

One HTML file, zero external assets (no scripts, no fonts, no
stylesheets, no network fetches of any kind): styling is an inline
``<style>`` block and every chart is inline SVG, so the file renders
identically from a file URL on an air-gapped machine and can be
attached to CI runs as a single artifact.

The report is assembled from whatever observability surfaces the run
produced -- each section degrades to an explanatory note when its data
source is absent:

- **phase breakdown** from the span tracer's self-time totals;
- **sweep cells** from the metrics registry's sweep counters;
- **cost-model fit vs observed** scatter + residual charts and the
  per-group coefficient table from a :class:`FittedCostModel` and the
  feature rows it was fitted on;
- **regression verdicts** from :mod:`repro.obs.baseline`;
- **bench history** sparklines from ``BENCH_history.jsonl`` records.

Charts follow the repo's chart conventions: one series-identity color
per role (validated categorical slots 1-2), text in text tokens only,
light and dark from the same markup via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Validated palette (reference instance): categorical slots 1-2 plus
# chrome tokens, each with its dark-surface step.
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --critical: #d03b3b;
  --good: #0ca30c;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --critical: #d03b3b;
    --good: #0ca30c;
    --border: rgba(255, 255, 255, 0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 2rem;
  background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
  line-height: 1.5;
}
main { max-width: 72rem; margin: 0 auto; }
h1 { font-size: 1.4rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 0.5rem; }
section {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 1rem 1.25rem;
  margin-top: 1rem;
}
.subtitle { color: var(--text-secondary); margin-bottom: 1rem; }
.note { color: var(--text-secondary); font-style: italic; }
table { border-collapse: collapse; width: 100%; margin-top: 0.5rem; }
th, td {
  text-align: left;
  padding: 0.3rem 0.75rem 0.3rem 0;
  border-bottom: 1px solid var(--grid);
}
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar-row { display: flex; align-items: center; gap: 0.6rem; margin: 0.2rem 0; }
.bar-label { flex: 0 0 14rem; color: var(--text-secondary); text-align: right; }
.bar-track { flex: 1; }
.bar-fill {
  height: 14px;
  background: var(--series-1);
  border-radius: 0 4px 4px 0;
  min-width: 2px;
}
.bar-value {
  flex: 0 0 7rem;
  color: var(--text-primary);
  font-variant-numeric: tabular-nums;
}
.status-bad { color: var(--critical); font-weight: 600; }
.status-good { color: var(--good); }
.legend { display: flex; gap: 1.25rem; margin: 0.4rem 0; color: var(--text-secondary); }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 0.35rem;
}
.charts { display: flex; flex-wrap: wrap; gap: 1.5rem; }
figure { margin: 0; }
figcaption { color: var(--text-secondary); margin-top: 0.25rem; }
svg text { fill: var(--muted); font-size: 10px; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .obs { fill: var(--series-1); }
svg .fitline { stroke: var(--series-2); stroke-width: 2; fill: none; }
svg .resid { fill: var(--series-1); }
svg .spark { stroke: var(--series-1); stroke-width: 2; fill: none; }
svg .spark-dot { fill: var(--series-2); }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def _fmt_sci(value: float) -> str:
    if value == 0:
        return "0"
    if 1e-3 <= abs(value) < 1e5:
        return f"{value:.4g}"
    return f"{value:.2e}"


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _section(title: str, body: str) -> str:
    return f"<section><h2>{_esc(title)}</h2>\n{body}\n</section>"


def _meta_section(meta: Dict[str, object], metrics) -> str:
    rows = [(str(k), str(v)) for k, v in (meta or {}).items()]
    if metrics is not None:
        for gauge in (
            "ckernel_loaded",
            "ingest_ckernel_loaded",
            "sim_ckernel_loaded",
            "compute_threads",
        ):
            try:
                value = metrics.value(gauge)
            except ValueError:
                continue
            rows.append((gauge, f"{value:g}"))
    if not rows:
        return ""
    cells = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return _section(
        "Run environment", f"<table><tbody>{cells}</tbody></table>"
    )


def _phase_section(tracer) -> str:
    totals = tracer.phase_totals() if tracer is not None else {}
    if not totals:
        return _section(
            "Phase breakdown",
            '<p class="note">No span data: run with tracing enabled '
            "(--profile / --trace-out) to populate this section.</p>",
        )
    ordered = sorted(totals.items(), key=lambda kv: kv[1][0], reverse=True)
    top = max(seconds for seconds, _ in totals.values()) or 1.0
    rows = []
    for name, (seconds, entries) in ordered:
        width = max(100.0 * seconds / top, 0.5)
        rows.append(
            '<div class="bar-row">'
            f'<span class="bar-label">{_esc(name)}</span>'
            '<span class="bar-track">'
            f'<div class="bar-fill" style="width:{width:.1f}%"></div></span>'
            f'<span class="bar-value">{_fmt_seconds(seconds)} '
            f"&middot; {entries}&times;</span>"
            "</div>"
        )
    return _section(
        "Phase breakdown",
        "<p class=\"subtitle\">Wall-clock self time per span phase "
        "(entries aggregated across threads and workers).</p>"
        + "".join(rows),
    )


def _sweep_section(metrics) -> str:
    if metrics is None:
        return _section(
            "Sweep cells",
            '<p class="note">No metrics registry captured for this run.</p>',
        )
    per_dataset: List[Tuple[str, int, float]] = []
    computed = cached = 0
    for name, kind, _help, series in metrics.families():
        if name == "sweep_cell_seconds":
            for labelset, metric in series:
                labels = dict(labelset)
                per_dataset.append(
                    (labels.get("dataset", ""), metric.count, metric.sum)
                )
        elif name == "sweep_cells_total":
            for labelset, metric in series:
                labels = dict(labelset)
                if labels.get("status") == "computed":
                    computed += int(metric.value)
                elif labels.get("status") == "cached":
                    cached += int(metric.value)
    if not per_dataset and not (computed or cached):
        return _section(
            "Sweep cells",
            '<p class="note">This run went through no sweep engine cells '
            "(single driver run, or metrics were off).</p>",
        )
    body = (
        f"<p class=\"subtitle\">{computed} cells computed, "
        f"{cached} requests served from cache.</p>"
    )
    if per_dataset:
        rows = "".join(
            f"<tr><td>{_esc(dataset)}</td>"
            f'<td class="num">{count}</td>'
            f'<td class="num">{_fmt_seconds(total)}</td>'
            f'<td class="num">{_fmt_seconds(total / count if count else 0.0)}</td>'
            "</tr>"
            for dataset, count, total in sorted(per_dataset)
        )
        body += (
            '<table><thead><tr><th>dataset</th><th class="num">cells</th>'
            '<th class="num">wall total</th><th class="num">wall mean</th>'
            f"</tr></thead><tbody>{rows}</tbody></table>"
        )
    return _section("Sweep cells", body)


def _fit_chart(fit, rows: List[dict], width: int = 330, height: int = 230) -> str:
    """Observed-vs-fitted scatter with a residual strip underneath."""
    pts = [
        (float(r.get("ops", 0.0)), float(r.get("t_seconds", 0.0)))
        for r in rows
    ]
    if not pts:
        return ""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_max = max(xs) or 1.0
    y_max = max(max(ys), fit.predict(x_max)) or 1.0
    pad_l, pad_r, pad_t = 46, 8, 8
    scatter_h, resid_h, gap = 140, 44, 22
    plot_w = width - pad_l - pad_r

    def sx(x: float) -> float:
        return pad_l + plot_w * x / x_max

    def sy(y: float) -> float:
        return pad_t + scatter_h * (1.0 - y / y_max)

    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="fit vs observed">'
    ]
    # Scatter panel: axis, observed dots, fitted line.
    parts.append(
        f'<line class="axis" x1="{pad_l}" y1="{pad_t + scatter_h}" '
        f'x2="{width - pad_r}" y2="{pad_t + scatter_h}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{pad_l}" y1="{pad_t}" '
        f'x2="{pad_l}" y2="{pad_t + scatter_h}"/>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{pad_t + 8}" text-anchor="end">'
        f"{_fmt_seconds(y_max)}</text>"
    )
    parts.append(
        f'<text x="{width - pad_r}" y="{pad_t + scatter_h + 12}" '
        f'text-anchor="end">{_fmt_sci(x_max)} ops</text>'
    )
    for x, y in pts:
        parts.append(
            f'<circle class="obs" cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5"/>'
        )
    y0, y1 = fit.predict(0.0), fit.predict(x_max)
    parts.append(
        f'<polyline class="fitline" points="{sx(0.0):.1f},{sy(y0):.1f} '
        f'{sx(x_max):.1f},{sy(y1):.1f}"/>'
    )
    # Residual strip: |relative error| per point.
    r_top = pad_t + scatter_h + gap
    rels = [
        (x, abs(fit.predict(x) - y) / y if y > 0 else 0.0) for x, y in pts
    ]
    r_max = max(max(rel for _, rel in rels), 0.15) or 1.0
    parts.append(
        f'<line class="grid" x1="{pad_l}" '
        f'y1="{r_top + resid_h * (1 - 0.15 / r_max):.1f}" '
        f'x2="{width - pad_r}" '
        f'y2="{r_top + resid_h * (1 - 0.15 / r_max):.1f}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{pad_l}" y1="{r_top + resid_h}" '
        f'x2="{width - pad_r}" y2="{r_top + resid_h}"/>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{r_top + 8}" text-anchor="end">'
        f"{r_max * 100:.0f}%</text>"
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{r_top + resid_h}" text-anchor="end">'
        "resid</text>"
    )
    for x, rel in rels:
        bar_h = resid_h * rel / r_max
        parts.append(
            f'<rect class="resid" x="{sx(x) - 1:.1f}" '
            f'y="{r_top + resid_h - bar_h:.1f}" width="2" '
            f'height="{max(bar_h, 0.5):.1f}"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _group_rows(rows: List[dict], fit) -> List[dict]:
    return [
        r
        for r in rows
        if r.get("phase") == fit.phase
        and r.get("structure") == fit.structure
        and str(r.get("algorithm", "")) == fit.algorithm
        and str(r.get("model", "")) == fit.model
    ]


def _model_section(model, features: Optional[List[dict]]) -> str:
    if model is None or not getattr(model, "groups", None):
        return _section(
            "Cost model",
            '<p class="note">No fitted cost model: run with feature capture '
            "enabled (repro report does this automatically).</p>",
        )
    # Coefficient + diagnostics table, worst fits flagged.
    head = (
        "<tr><th>phase</th><th>structure</th><th>algorithm</th><th>model</th>"
        '<th class="num">setup</th><th class="num">per-op</th>'
        '<th class="num">ops/edge</th><th class="num">samples</th>'
        '<th class="num">median rel err</th><th class="num">R&sup2;</th></tr>'
    )
    body_rows = []
    for fit in (model.groups[key] for key in sorted(model.groups)):
        err_class = "status-bad" if fit.median_rel_err > 0.15 else "status-good"
        err_mark = "&#9888; " if fit.median_rel_err > 0.15 else ""
        body_rows.append(
            f"<tr><td>{_esc(fit.phase)}</td><td>{_esc(fit.structure)}</td>"
            f"<td>{_esc(fit.algorithm) or '&mdash;'}</td>"
            f"<td>{_esc(fit.model) or '&mdash;'}</td>"
            f'<td class="num">{_fmt_seconds(fit.setup)}</td>'
            f'<td class="num">{_fmt_sci(fit.per_op)} s</td>'
            f'<td class="num">{_fmt_sci(fit.ops_per_edge)}</td>'
            f'<td class="num">{fit.samples}</td>'
            f'<td class="num {err_class}">{err_mark}'
            f"{fit.median_rel_err * 100:.1f}%</td>"
            f'<td class="num">{fit.r2:.3f}</td></tr>'
        )
    body = (
        "<p class=\"subtitle\">Closed-form fit T = setup + per-op &times; ops "
        "per (phase, structure, algorithm, model); groups above the 15% "
        "median-relative-error bar are flagged.</p>"
        f"<table><thead>{head}</thead><tbody>{''.join(body_rows)}</tbody></table>"
    )
    # Fit-vs-observed charts for the most interesting groups.
    if features:
        worst = sorted(
            model.groups.values(), key=lambda g: g.median_rel_err, reverse=True
        )[:4]
        charts = []
        for fit in worst:
            rows = _group_rows(features, fit)
            svg = _fit_chart(fit, rows)
            if not svg:
                continue
            label = " / ".join(
                part
                for part in (fit.phase, fit.structure, fit.algorithm, fit.model)
                if part
            )
            charts.append(
                f"<figure>{svg}<figcaption>{_esc(label)} &mdash; "
                f"median rel err {fit.median_rel_err * 100:.1f}%"
                "</figcaption></figure>"
            )
        if charts:
            body += (
                '<div class="legend">'
                '<span><span class="swatch" '
                'style="background:var(--series-1)"></span>observed</span>'
                '<span><span class="swatch" '
                'style="background:var(--series-2)"></span>fitted</span>'
                "</div>"
                "<p class=\"subtitle\">Least-well-fitted groups, observed vs "
                "fitted with per-batch |relative error| below (gridline = "
                "the 15% bar).</p>"
                f'<div class="charts">{"".join(charts)}</div>'
            )
    return _section("Cost model", body)


def _verdict_section(verdicts) -> str:
    if verdicts is None:
        return _section(
            "Regression verdicts",
            '<p class="note">No bench history checked in this run.</p>',
        )
    if not verdicts:
        return _section(
            "Regression verdicts",
            '<p class="status-good">No regressions: every tracked timing is '
            "within threshold of its trailing baseline.</p>",
        )
    rows = "".join(
        f"<tr><td>{_esc(v.bench)}</td><td>{_esc(v.timing)}</td>"
        f'<td class="num">{_fmt_seconds(v.current)}</td>'
        f'<td class="num">{_fmt_seconds(v.baseline)}</td>'
        f'<td class="num status-bad">&#9888; {v.ratio:.2f}&times;</td>'
        f"<td>{_esc(v.sha[:12])}</td></tr>"
        for v in verdicts
    )
    return _section(
        "Regression verdicts",
        '<table><thead><tr><th>bench</th><th>timing</th>'
        '<th class="num">current</th><th class="num">baseline</th>'
        '<th class="num">ratio</th><th>sha</th></tr></thead>'
        f"<tbody>{rows}</tbody></table>",
    )


def _autotune_section(autotune: Optional[dict]) -> str:
    if not autotune or not autotune.get("decisions"):
        return _section(
            "Auto-tuner",
            '<p class="note">Not an adaptive run: use '
            "structures=('adaptive',) (repro autotune, or --adaptive on "
            "stream/scale) to populate this section.</p>",
        )
    summary = autotune.get("summary", {})
    decisions = autotune["decisions"]
    predicted = [float(d.get("predicted_seconds", 0.0)) for d in decisions]
    actual = [float(d.get("actual_seconds", 0.0)) for d in decisions]
    body = (
        "<p class=\"subtitle\">Per-batch (structure, model) decisions of "
        f"the online auto-tuner over {_esc(autotune.get('dataset', '?'))}: "
        f"{summary.get('batches', len(decisions))} batches, "
        f"{summary.get('switches', 0)} live migrations costing "
        f"{_fmt_seconds(float(summary.get('migration_seconds', 0.0)))}, "
        "estimated regret vs the best candidate "
        f"{_fmt_seconds(float(summary.get('est_regret_seconds', 0.0)))}.</p>"
    )
    if len(actual) >= 2:
        body += (
            '<div class="legend">'
            '<span><span class="swatch" '
            'style="background:var(--series-1)"></span>actual</span>'
            '<span><span class="swatch" '
            'style="background:var(--series-2)"></span>predicted (dot: '
            "last)</span></div>"
            f"<figure>{_sparkline(actual, width=420)}"
            "<figcaption>actual per-batch latency</figcaption></figure>"
            f"<figure>{_sparkline(predicted, width=420)}"
            "<figcaption>predicted per-batch latency</figcaption></figure>"
        )
    switch_rows = [
        d for d in decisions
        if d.get("reason") in ("switch", "explore", "forced", "start")
        or float(d.get("migration_seconds", 0.0)) > 0.0
    ]
    rows = "".join(
        f"<tr><td class=\"num\">{int(d.get('rep', 0))}</td>"
        f"<td class=\"num\">{int(d.get('batch', 0))}</td>"
        f"<td>{_esc(d.get('structure', ''))}</td>"
        f"<td>{_esc(d.get('reason', ''))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('predicted_seconds', 0.0)))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('actual_seconds', 0.0)))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('migration_seconds', 0.0)))}</td></tr>"
        for d in switch_rows
    )
    if rows:
        body += (
            "<p class=\"subtitle\">Decisions that placed or moved the live "
            "structure (steady-state holds omitted).</p>"
            '<table><thead><tr><th class="num">rep</th>'
            '<th class="num">batch</th><th>structure</th><th>reason</th>'
            '<th class="num">predicted</th><th class="num">actual</th>'
            '<th class="num">migration</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>"
        )
    return _section("Auto-tuner", body)


def _sparkline(values: Sequence[float], width: int = 140, height: int = 28) -> str:
    if len(values) < 2:
        return ""
    v_max = max(values) or 1.0
    v_min = min(values)
    span = (v_max - v_min) or 1.0
    step = (width - 8) / (len(values) - 1)
    points = " ".join(
        f"{4 + i * step:.1f},{4 + (height - 8) * (1 - (v - v_min) / span):.1f}"
        for i, v in enumerate(values)
    )
    last_x = 4 + (len(values) - 1) * step
    last_y = 4 + (height - 8) * (1 - (values[-1] - v_min) / span)
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="history">'
        f'<polyline class="spark" points="{points}"/>'
        f'<circle class="spark-dot" cx="{last_x:.1f}" cy="{last_y:.1f}" r="3"/>'
        "</svg>"
    )


def _history_section(history: Optional[List[dict]]) -> str:
    if not history:
        return _section(
            "Bench history",
            '<p class="note">No BENCH_history.jsonl records supplied.</p>',
        )
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for record in history:
        key = (str(record.get("bench", "")), str(record.get("fingerprint", "")))
        groups.setdefault(key, []).append(record)
    rows = []
    for (bench, fingerprint), records in sorted(groups.items()):
        latest = records[-1].get("timings", {})
        # Headline timings: the group's largest latest values.
        for timing in sorted(latest, key=lambda k: -latest[k])[:3]:
            series = [
                float(r["timings"][timing])
                for r in records
                if timing in r.get("timings", {})
            ]
            rows.append(
                f"<tr><td>{_esc(bench)}</td><td>{_esc(timing)}</td>"
                f'<td class="num">{len(series)}</td>'
                f'<td class="num">{_fmt_seconds(series[-1])}</td>'
                f"<td>{_sparkline(series)}</td></tr>"
            )
    return _section(
        "Bench history",
        "<p class=\"subtitle\">Min-of-N wall timings per (bench, workload "
        "fingerprint) across recorded runs; the dot marks the latest.</p>"
        '<table><thead><tr><th>bench</th><th>timing</th>'
        '<th class="num">runs</th><th class="num">latest</th>'
        "<th>trend</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>",
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def render_report(
    title: str = "SAGA-Bench run report",
    meta: Optional[Dict[str, object]] = None,
    tracer=None,
    metrics=None,
    features: Optional[List[dict]] = None,
    model=None,
    verdicts=None,
    history: Optional[List[dict]] = None,
    autotune: Optional[dict] = None,
) -> str:
    """The full report as one self-contained HTML string.

    Every input is optional; omitted surfaces render as explanatory
    notes so a report is always complete and honest about what the run
    did and did not observe.
    """
    sections = [
        _meta_section(meta or {}, metrics),
        _phase_section(tracer),
        _model_section(model, features),
        _autotune_section(autotune),
        _sweep_section(metrics),
        _verdict_section(verdicts),
        _history_section(history),
    ]
    body = "\n".join(part for part in sections if part)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        f"<h1>{_esc(title)}</h1>\n"
        '<p class="subtitle">Single-file report: inline styles and inline '
        "SVG only, no external assets.</p>\n"
        f"{body}\n</main>\n</body>\n</html>\n"
    )


def write_report(path, **kwargs) -> str:
    """Render and write the report; returns the path written."""
    Path(path).write_text(render_report(**kwargs))
    return str(path)
