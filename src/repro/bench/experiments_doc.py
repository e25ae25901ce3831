"""Generate EXPERIMENTS.md from archived benchmark results.

``python -m repro.bench report`` stitches every table entry's prose
(:data:`repro.bench.table.EXPERIMENTS`: the paper's expected outcome and
the shape that must reproduce) together with the measured rows archived
by the benchmark suite under ``benchmarks/results/``, producing the
paper-vs-measured record the repository ships as EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

from .table import EXPERIMENTS

__all__ = ["render_experiments_md"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, and every post-paper
extension (durability ... chaos), is one entry of one table
(`src/repro/bench/table.py`: its axes or body, its columns, the prose
below and `check`, the executable form of "Reproduced shape"), and one
command regenerates, archives and checks all 30 on the simulated block
device at the scaled-down defaults (see DESIGN.md for scales and the
substitution argument):

    python -m pytest benchmarks/bench_paper.py --benchmark-only   # -k fig5 for one
    python -m repro.bench report                                  # this file

Absolute numbers differ from the authors' hardware by construction; the
*shape* — who wins, by roughly what factor, where crossovers fall — is
what each entry records (`tests/test_paper_shape.py` asserts it again
at its own scale).
"""


def render_experiments_md(results_dir: str = "benchmarks/results") -> str:
    """Assemble the EXPERIMENTS.md text from archived result tables."""
    directory = pathlib.Path(results_dir)
    sections = [_HEADER]
    for entry in EXPERIMENTS.values():
        sections.append(f"\n## {entry.artifact} (`{entry.id}`)\n")
        sections.append(f"**Paper:** {entry.paper}\n")
        sections.append(f"**Reproduced shape:** {entry.shape}\n")
        path = directory / f"{entry.id}.txt"
        measured = path.read_text().rstrip() if path.exists() else ""
        if measured:
            sections.append("\n<details><summary>Measured rows</summary>\n")
            sections.append("```\n" + measured + "\n```")
            sections.append("</details>\n")
        else:
            sections.append("\n*(no archived result yet — run the benchmark suite)*\n")
    return "\n".join(sections) + "\n"
