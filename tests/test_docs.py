"""Docs gate: the markdown tree must not rot.

Checks every markdown file at the repo root and under ``docs/`` for
broken *relative* links (files that moved or were renamed) and keeps the
docs site's required pages present.  External links are not fetched —
this gate must pass offline.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` markdown links; images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline ``code spans`` are stripped first so example snippets like
#: ``[a](b)`` inside backticks do not count as links.
_CODE_SPAN = re.compile(r"`[^`]*`")

_FENCE = re.compile(r"^(```|~~~)")


def _markdown_files():
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(
        (REPO_ROOT / "docs").glob("**/*.md")
    )
    assert files, "no markdown files found — wrong repo root?"
    return files


def _links(path: Path):
    """Yield (line_number, target) for every link outside code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(_CODE_SPAN.sub("", line)):
            yield lineno, match.group(1)


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


@pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    """Every relative link in every markdown file points at a real file."""
    broken = []
    for lineno, target in _links(path):
        if _is_external(target):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(f"{path.name}:{lineno}: {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


def test_docs_site_pages_present():
    """The documented docs tree exists with non-trivial content."""
    for name in ("architecture.md", "operations.md", "protocol.md"):
        page = REPO_ROOT / "docs" / name
        assert page.is_file(), f"docs/{name} is missing"
        assert len(page.read_text()) > 500, f"docs/{name} looks like a stub"


def test_readme_links_docs_site():
    """The README routes readers to the docs tree."""
    readme = (REPO_ROOT / "README.md").read_text()
    for name in ("docs/architecture.md", "docs/operations.md", "docs/protocol.md"):
        assert name in readme, f"README does not link {name}"


def test_roadmap_open_items_populated():
    """ROADMAP's 'Open items' section must list real directions, not the
    placeholder it shipped with."""
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
    assert "Open items" in roadmap
    assert "populated by the first re-anchor" not in roadmap
    section = roadmap.split("Open items", 1)[1]
    assert section.count("- ") >= 3, "Open items should list concrete directions"


def test_protocol_kind_table_matches_code():
    """Doc–code sync gate: the control-plane table tracks the wire.

    Every kind the codec speaks (``repro.net.messages.MESSAGE_KINDS``)
    must have a row in docs/protocol.md's control-plane table, and every
    kind the table documents must still exist in the code.  Adding or
    removing a message kind without regenerating the table fails CI.
    """
    from repro.net.messages import MESSAGE_KINDS

    text = (REPO_ROOT / "docs" / "protocol.md").read_text()
    rows = re.findall(r"^\| `([a-z]+)` \|", text, flags=re.MULTILINE)
    assert rows, "protocol.md lost its control-plane kind table"
    documented = set(rows)
    spoken = set(MESSAGE_KINDS)
    missing = spoken - documented
    stale = documented - spoken
    assert not missing, (
        f"wire kinds missing from docs/protocol.md: {sorted(missing)} — "
        "regenerate the control-plane table"
    )
    assert not stale, (
        f"docs/protocol.md documents kinds the wire no longer speaks: "
        f"{sorted(stale)}"
    )


def test_operations_documents_requality_metric():
    """The runbook covers the mid-stream adaptation loop."""
    operations = (REPO_ROOT / "docs" / "operations.md").read_text()
    assert "repro_requality_total" in operations
    assert "session_requality" in operations


def test_readme_links_adaptation_and_benchmarks():
    """The README routes readers to the adaptation note and bench docs."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/adaptation.md" in readme
    assert "benchmarks/trend_check.py" in readme


def _bench(name):
    import json

    return json.loads((REPO_ROOT / "benchmarks" / "results" / name).read_text())


def test_lut_speedup_quoted_from_bench_engine():
    """Doc-number drift gate: the LUT compensate figures in DESIGN.md §13
    and docs/architecture.md are the ones ``BENCH_engine.json`` records,
    at the printed precision.  Re-recording the benchmark without
    re-quoting the docs fails here."""
    bench = _bench("BENCH_engine.json")["compensate_only"]
    speedup = f"{bench['lut_speedup_vs_float']:.2f}"
    float_ms = f"{bench['float_seconds'] * 1e3:.2f}"
    lut_ms = f"{bench['lut_seconds'] * 1e3:.2f}"

    design = " ".join((REPO_ROOT / "DESIGN.md").read_text().split())
    quoted = re.search(
        r"the LUT kernel runs \*\*([\d.]+)×\*\* the float path "
        r"\(([\d.]+) ms → ([\d.]+) ms per (\d+)-frame batch", design
    )
    assert quoted, "DESIGN.md §13 lost its quoted LUT speedup"
    assert quoted.groups() == (
        speedup, float_ms, lut_ms, str(bench["chunk_frames"])
    )

    architecture = " ".join(
        (REPO_ROOT / "docs" / "architecture.md").read_text().split()
    )
    quoted = re.search(r"([\d.]+)× the float kernel", architecture)
    assert quoted, "docs/architecture.md lost its quoted LUT speedup"
    assert quoted.group(1) == speedup


def test_network_figures_quoted_from_bench_network():
    """Doc-number drift gate: the wire-path figures in DESIGN.md and
    docs/architecture.md (sessions/sec, frames/sec, mean TTFF, MB/s) are
    the ones ``BENCH_network.json`` records, at the printed precision."""
    engines = _bench("BENCH_network.json")["engines"]
    chunked, perframe = engines["chunked"], engines["perframe"]

    def sessions(e):
        return f"{e['sessions_per_sec']:.1f}"

    def ttff_ms(e):
        return f"{e['latency']['ttff_mean_s'] * 1e3:.0f}"

    design = " ".join((REPO_ROOT / "DESIGN.md").read_text().split())
    quoted = re.search(
        r"chunked went from [\d.]+ → \*\*([\d.]+) sessions/sec\*\* "
        r"\(perframe: ([\d.]+)\), ([\d,]+) frames/sec \(perframe: ([\d,]+)\), "
        r"mean TTFF [\d.]+ s → \*\*~(\d+) ms\*\* \(perframe: ~(\d+) ms\), "
        r"~(\d+) MB/s on the wire", design
    )
    assert quoted, "DESIGN.md lost its quoted network figures"
    assert quoted.groups() == (
        sessions(chunked), sessions(perframe),
        f"{chunked['frames_per_sec']:,.0f}", f"{perframe['frames_per_sec']:,.0f}",
        ttff_ms(chunked), ttff_ms(perframe),
        f"{chunked['wire_mbytes_per_sec']:.0f}",
    )

    architecture = " ".join(
        (REPO_ROOT / "docs" / "architecture.md").read_text().split()
    )
    quoted = re.search(
        r"chunked serves ([\d.]+) sessions/sec vs perframe's ([\d.]+) .*?"
        r"~(\d+) ms mean time-to-first-frame \(perframe: ~(\d+) ms\)",
        architecture,
    )
    assert quoted, "docs/architecture.md lost its quoted network figures"
    assert quoted.groups() == (
        sessions(chunked), sessions(perframe), ttff_ms(chunked), ttff_ms(perframe),
    )


def _result(name):
    return (REPO_ROOT / "benchmarks" / "results" / name).read_text()


def test_paper_figures_quoted_from_results():
    """Doc-number drift gate: EXPERIMENTS.md's Figure 9 table, Figure 8
    gamma and Figure 10 peak and ``ice_age`` figures are the ones the
    committed ``benchmarks/results/*.txt`` files record."""
    experiments = " ".join((REPO_ROOT / "EXPERIMENTS.md").read_text().split())
    fig9_section = experiments.split("## Figure 9", 1)[1].split("## Figure 10", 1)[0]

    fig9 = {}
    for line in _result("fig9_backlight_savings.txt").splitlines()[1:]:
        if not line.strip():
            break
        name, *values = line.split()
        fig9[name] = [v.rstrip("%") for v in values]
    quoted = {
        name: values.split(" | ")
        for name, values in re.findall(
            r"\| ([\w-]+) \| ((?:[\d.]+ \| ){4}[\d.]+) \|", fig9_section
        )
    }
    assert quoted == fig9

    gamma = re.search(r"fitted white gamma \(bl=255\): ([\d.]+)",
                      _result("fig8_white_transfer.txt"))
    quoted = re.search(r"fitted white gamma ([\d.]+) at backlight 255", experiments)
    assert gamma and quoted, "Figure 8 gamma missing"
    assert quoted.group(1) == gamma.group(1)

    fig10 = _result("fig10_total_savings.txt")
    peak = re.search(r"peak total-device savings at 20% quality: ([\d.]+)%", fig10)
    ice_age = re.search(r"ice_age at 20% quality: ([\d.]+)%", fig10)
    quoted = re.search(
        r"\(`fig10_total_savings.txt`\): peak ([\d.]+) % at 20 % quality .*? "
        r"`ice_age` ([\d.]+) %;", experiments
    )
    assert peak and ice_age and quoted, "Figure 10 peak / ice_age missing"
    assert quoted.groups() == (peak.group(1), ice_age.group(1))
