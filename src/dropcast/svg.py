"""Dependency-free SVG rendering of ROC curves.

One chart: all curves, a dashed diagonal reference line, and a legend
carrying each curve's AUC to three decimals. The canvas is 720x560 for
up to 17 curves, whose legend fits inside the plot; a longer legend goes
below the axis title and the canvas grows taller to fit it. Coordinates are
formatted with two decimals, so output bytes are deterministic for a
given input.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidArgumentError
from .metrics import RocReport

_WIDTH, _HEIGHT = 720, 560
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 30, 30, 70
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _x(fpr: float) -> float:
    return _LEFT + fpr * _PLOT_W


def _y(tpr: float) -> float:
    return _TOP + (1.0 - tpr) * _PLOT_H


def _curve_label(report: RocReport, many_seeds: bool) -> str:
    label = report.model_kind.label
    if report.excluded_group is not None:
        label += f" excl {report.excluded_group.value}"
    if many_seeds:
        label += f" seed {report.seed}"
    return f"{label} (AUC={report.auc:.3f})"


def render_roc_svg(reports: list[RocReport]) -> bytes:
    if not reports:
        raise InvalidArgumentError("need at least one report to plot")
    many_seeds = len({r.seed for r in reports}) > 1
    legend_x = _LEFT + _PLOT_W - 250
    # the plot's bottom-right corner; a legend too long to fit there goes
    # below the axis title, and the canvas grows to end 20 px below it
    legend_y = _TOP + _PLOT_H - 24 * len(reports) - 16
    if legend_y < _TOP + 24:
        legend_y = _HEIGHT + 18
    height = max(_HEIGHT, legend_y + 24 * len(reports) + 26)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in _TICKS:
        x = _x(tick)
        y = _y(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_TOP + _PLOT_H}" x2="{x:.2f}" '
            f'y2="{_TOP + _PLOT_H + 6}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_TOP + _PLOT_H + 22}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{tick:.1f}</text>'
        )
        parts.append(
            f'<line x1="{_LEFT - 6}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 10}" y="{y + 4:.2f}" font-size="13" '
            f'text-anchor="end" font-family="sans-serif">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + _PLOT_W / 2:.2f}" y="{_HEIGHT - 18}" font-size="15" '
        'text-anchor="middle" font-family="sans-serif">False positive rate</text>'
    )
    parts.append(
        f'<text x="22" y="{_TOP + _PLOT_H / 2:.2f}" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 22 {_TOP + _PLOT_H / 2:.2f})">'
        "True positive rate</text>"
    )
    parts.append(
        f'<line x1="{_x(0.0):.2f}" y1="{_y(0.0):.2f}" x2="{_x(1.0):.2f}" y2="{_y(1.0):.2f}" '
        'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
    )

    for i, report in enumerate(reports):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{_x(float(fx)):.2f},{_y(float(ty)):.2f}"
            for fx, ty in zip(report.curve.fpr, report.curve.tpr)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )

    parts.append(
        f'<rect x="{legend_x - 10}" y="{legend_y - 18}" width="250" '
        f'height="{24 * len(reports) + 24}" fill="white" stroke="#cccccc"/>'
    )
    for i, report in enumerate(reports):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 24 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 28}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 36}" y="{y + 4}" font-size="13" '
            f'font-family="sans-serif">{_curve_label(report, many_seeds)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def emit_roc_svg(reports: list[RocReport], path: str | Path) -> None:
    Path(path).write_bytes(render_roc_svg(reports))
