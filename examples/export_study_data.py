#!/usr/bin/env python3
"""Run the campaign, validate against the paper, export the data.

Mirrors the paper's own data release (§1: "Data available at ..."):
produces a reproduction scorecard plus JSON and CSV artifacts.

Run:  python examples/export_study_data.py [output-dir]
"""

import pathlib
import sys

from repro import FullStudy, build_scenario
from repro.analysis.export import confirmations_rows, installations_rows, to_csv, to_json
from repro.analysis.validation import validate_report


def main() -> None:
    output_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "study-data")
    output_dir.mkdir(parents=True, exist_ok=True)

    scenario = build_scenario()
    report = FullStudy(scenario).run()

    scorecard = validate_report(report)
    print(scorecard.summary())
    for artifact in ("figure1", "table3", "probe", "table4"):
        checks = scorecard.by_artifact(artifact)
        matched = sum(1 for c in checks if c.matched)
        print(f"  {artifact}: {matched}/{len(checks)} checks match the paper")

    (output_dir / "study.json").write_text(to_json(report))
    (output_dir / "installations.csv").write_text(
        to_csv(installations_rows(report.identification))
    )
    (output_dir / "confirmations.csv").write_text(
        to_csv(confirmations_rows(report))
    )
    print(f"\nwrote {sorted(p.name for p in output_dir.iterdir())} to {output_dir}/")


if __name__ == "__main__":
    main()
