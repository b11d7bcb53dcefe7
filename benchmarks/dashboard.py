"""Benchmark trend dashboard: metric trajectories from git history.

Every CI run regenerates ``benchmarks/results/BENCH_*.json`` and
``trend_check.py`` gates one-step regressions against the committed
baseline — but neither shows the *trajectory*.  This tool walks the git
history of each committed baseline file (``git log`` + ``git show``),
extracts the gated metrics (plus a few observability extras such as
time-to-first-frame and deadline-miss fraction), and renders them as
``benchmarks/results/dashboard.html``: a standalone HTML page with an
inline SVG trend line and first/min/max/last columns per metric, which
CI uploads as an artifact.

Only the standard library and git are used.  Usage::

    python benchmarks/dashboard.py [--ref HEAD] [--max-commits 40]
        [--html results/dashboard.html]
"""

from __future__ import annotations

import argparse
import html as html_mod
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from trend_check import QUALITY_KEYS, RATE_KEYS, flatten, metric_key  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: Ungated metrics worth charting alongside the gated ones.
EXTRA_KEYS = {
    "ttff_mean_s",
    "deadline_miss_fraction",
    "wire_overhead_fraction",
    "slowdown_vs_uncapped",
}

CHARTED_KEYS = QUALITY_KEYS | RATE_KEYS | EXTRA_KEYS


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", REPO_ROOT, *args], capture_output=True
    )


def baseline_commits(relpath: str, ref: str, limit: Optional[int]) -> List[str]:
    """Commits that touched ``relpath``, oldest first."""
    proc = _git("log", "--format=%H", "--reverse", ref, "--", relpath)
    if proc.returncode != 0:
        return []
    shas = [line for line in proc.stdout.decode().splitlines() if line]
    if limit is not None and limit > 0:
        shas = shas[-limit:]
    return shas


def commit_meta(sha: str) -> Tuple[str, str]:
    """``(short_sha, iso_date)`` for one commit."""
    proc = _git("show", "-s", "--format=%h %cs", sha)
    if proc.returncode != 0:
        return sha[:7], ""
    parts = proc.stdout.decode().strip().split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


def file_at(relpath: str, sha: str) -> Optional[dict]:
    """The parsed JSON baseline at one commit, or None when unreadable."""
    proc = _git("show", f"{sha}:{relpath}")
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.decode())
    except (ValueError, UnicodeDecodeError):
        return None


def charted_leaves(data: dict) -> Dict[str, float]:
    """The flattened numeric leaves whose final key is charted."""
    return {
        path: value
        for path, value in flatten(data).items()
        if metric_key(path) in CHARTED_KEYS
    }


def collect_history(relpath: str, ref: str, limit: Optional[int]):
    """Per-metric value series across the file's baseline commits.

    Returns ``(labels, series)`` where ``labels`` is one ``(short_sha,
    date)`` pair per commit and ``series`` maps each metric path to a
    list of ``Optional[float]`` aligned with ``labels`` (``None`` where
    the metric did not exist yet).
    """
    labels: List[Tuple[str, str]] = []
    snapshots: List[Dict[str, float]] = []
    for sha in baseline_commits(relpath, ref, limit):
        data = file_at(relpath, sha)
        if data is None:
            continue
        labels.append(commit_meta(sha))
        snapshots.append(charted_leaves(data))
    paths = sorted({path for snap in snapshots for path in snap})
    series = {
        path: [snap.get(path) for snap in snapshots] for path in paths
    }
    return labels, series


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3g}"
    return f"{value:.4g}"


def _svg_polyline(values: List[Optional[float]],
                  width: int = 260, height: int = 40) -> str:
    """One metric's inline SVG trend line."""
    points = [(i, v) for i, v in enumerate(values) if v is not None]
    if len(points) < 2:
        return ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo, hi = min(ys), max(ys)
    span = hi - lo
    x_span = max(xs) - min(xs)
    coords = []
    for x, y in points:
        px = 4 + (x - min(xs)) / x_span * (width - 8)
        py = (height - 6) - (
            ((y - lo) / span) if span > 0 else 0.5
        ) * (height - 12) + 3
        coords.append(f"{px:.1f},{py:.1f}")
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polyline fill="none" stroke="#2266bb" stroke-width="1.5" '
        f'points="{" ".join(coords)}"/></svg>'
    )


def render_html(histories) -> str:
    """The standalone HTML artifact with inline SVG trends."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>Benchmark trends</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;max-width:70em}",
        "table{border-collapse:collapse;margin-bottom:2em}",
        "td,th{border:1px solid #ccc;padding:0.3em 0.7em;"
        "font-size:0.9em;text-align:right}",
        "td:first-child,th:first-child{text-align:left;"
        "font-family:monospace}",
        "h2{border-bottom:1px solid #ddd;padding-bottom:0.2em}",
        "</style></head><body>",
        "<h1>Benchmark trends</h1>",
        "<p>Gated metrics across the committed <code>BENCH_*.json</code> "
        "baselines, oldest commit to newest.</p>",
    ]
    for name, (labels, series) in histories:
        parts.append(f"<h2>{html_mod.escape(name)}</h2>")
        if not labels:
            parts.append("<p><em>No committed baselines yet.</em></p>")
            continue
        parts.append(
            f"<p>{len(labels)} baseline commit(s): "
            + " → ".join(
                f"<code>{html_mod.escape(sha)}</code>"
                for sha, _date in labels
            )
            + "</p>"
        )
        parts.append(
            "<table><tr><th>metric</th><th>trend</th>"
            "<th>first</th><th>min</th><th>max</th><th>last</th></tr>"
        )
        for path, values in series.items():
            present = [v for v in values if v is not None]
            if not present:
                continue
            parts.append(
                f"<tr><td>{html_mod.escape(path)}</td>"
                f"<td>{_svg_polyline(values)}</td>"
                f"<td>{_fmt(present[0])}</td><td>{_fmt(min(present))}</td>"
                f"<td>{_fmt(max(present))}</td><td>{_fmt(present[-1])}</td>"
                "</tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD",
                        help="git ref whose history is walked (default HEAD)")
    parser.add_argument("--max-commits", type=int, default=40,
                        help="newest N baseline commits per file (default 40)")
    parser.add_argument("--html",
                        default=os.path.join(RESULTS_DIR, "dashboard.html"),
                        help="HTML output path")
    args = parser.parse_args(argv)

    names = sorted(
        name for name in os.listdir(RESULTS_DIR)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not names:
        print("dashboard: no BENCH_*.json files found", file=sys.stderr)
        return 1
    histories = []
    for name in names:
        relpath = os.path.join("benchmarks", "results", name).replace(os.sep, "/")
        histories.append((name, collect_history(relpath, args.ref,
                                                args.max_commits)))

    os.makedirs(os.path.dirname(args.html), exist_ok=True)
    with open(args.html, "w") as fh:
        fh.write(render_html(histories))
    print(f"dashboard html -> {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
