"""Tests for repro._util, the wordlist, and the CLI."""

import numpy as np
import pytest

from repro._util import (
    DAY,
    WEEK,
    check_nonnegative,
    check_positive,
    check_probability,
    day_of,
    make_rng,
    spawn_rngs,
    week_of,
    weighted_choice,
)
from repro.__main__ import main
from repro.core.wordlists import COMMON_SUBDOMAINS_HEAD, common_subdomains


class TestRng:
    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_seed_deterministic(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_spawn_independent(self):
        rng = make_rng(0)
        a, b = spawn_rngs(rng, 2)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(make_rng(0), -1)


class TestTimeHelpers:
    def test_day_of(self):
        assert day_of(0.0) == 0
        assert day_of(DAY - 1) == 0
        assert day_of(DAY) == 1

    def test_week_of(self):
        assert week_of(WEEK + 1) == 1


class TestValidators:
    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0) == 0
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_positive(self):
        assert check_positive("x", 1) == 1
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_probability(self):
        assert check_probability("x", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("x", 1.5)

    def test_weighted_choice(self):
        rng = make_rng(0)
        assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])


class TestWordlist:
    def test_default_count(self):
        names = common_subdomains()
        assert len(names) == 374
        assert len(set(names)) == 374

    def test_head_is_real_names(self):
        assert "www" in COMMON_SUBDOMAINS_HEAD
        assert "mail" in COMMON_SUBDOMAINS_HEAD
        names = common_subdomains(5)
        assert names == list(COMMON_SUBDOMAINS_HEAD[:5])

    def test_synthetic_fill(self):
        names = common_subdomains(400)
        assert len(names) == 400
        assert names[-1].startswith("svc")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            common_subdomains(-1)

    def test_all_valid_dns_labels(self):
        from repro.dns.records import validate_name

        for name in common_subdomains():
            validate_name(f"{name}.example.com")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig11" in out

    def test_standalone_experiment(self, capsys):
        assert main(["experiment", "table2", "table7"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Twinklenet" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "bogus"]) == 2

    def test_cdn_experiment(self, capsys):
        assert main(["experiment", "fig13"]) == 0
        assert "Fig 13" in capsys.readouterr().out

    def test_metrics_snapshot_printed(self, capsys):
        assert main(["experiment", "table2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics snapshot ==" in out
        assert "experiment.table2" in out

    def test_metrics_json_written(self, capsys, tmp_path):
        import json

        from repro.obs import NULL_REGISTRY, get_registry

        path = tmp_path / "metrics.json"
        assert main(["experiment", "table2", f"--metrics={path}"]) == 0
        snapshot = json.loads(path.read_text())
        assert "experiment.table2" in snapshot["timings"]
        # the CLI must restore the null registry after the run.
        assert get_registry() is NULL_REGISTRY

    def test_metrics_trace_journal_compose(self, capsys, tmp_path):
        """--metrics, --trace, and --journal all work in one invocation."""
        import json

        from repro.obs import (
            NULL_JOURNAL,
            NULL_REGISTRY,
            NULL_TRACER,
            get_journal,
            get_registry,
            get_tracer,
            load_manifest,
            read_journal,
        )

        trace_path = tmp_path / "trace.json"
        journal_path = tmp_path / "journal.jsonl"
        assert main([
            "run", "--days", "3", "--scale", "1e-5", "--tail", "2",
            "--metrics", f"--trace={trace_path}",
            f"--journal={journal_path}",
        ]) == 0
        out = capsys.readouterr().out
        # All three layers reported.
        assert "== metrics snapshot ==" in out
        assert "== trace self-time by stage ==" in out
        assert "scenario.run_day" in out
        # The trace file is Chrome-trace-viewer-loadable JSON.
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"]}
        assert "run_scenario" in names and "scenario.run_day" in names
        # The journal opens with a manifest and closes with run_end.
        records = read_journal(journal_path)
        assert records[0]["type"] == "run_manifest"
        assert records[-1]["type"] == "run_end"
        assert load_manifest(journal_path).config["duration_days"] == 3
        # The CLI must restore all three null layers after the run.
        assert get_registry() is NULL_REGISTRY
        assert get_tracer() is NULL_TRACER
        assert get_journal() is NULL_JOURNAL

    def test_sharded_metrics_report_parent_dispatch(self, capsys, tmp_path):
        """Under --jobs the parent dispatches and reacts, so its snapshot
        carries the scenario.dispatch timer and the same Twinklenet and
        T-Pot counters as a serial run (30 days: every T-Pot is live)."""
        import json

        snapshots = {}
        for jobs in (1, 2):
            path = tmp_path / f"metrics{jobs}.json"
            assert main([
                "run", "--days", "30", "--scale", "1e-4", "--tail", "20",
                "--jobs", str(jobs), f"--metrics={path}",
            ]) == 0
            snapshots[jobs] = json.loads(path.read_text())
        capsys.readouterr()
        serial, sharded = snapshots[1], snapshots[2]
        for snapshot in (serial, sharded):
            # One dispatch per simulated day.
            assert snapshot["timings"]["scenario.dispatch"]["count"] == 30
        honeypot = {name: value for name, value in serial["counters"].items()
                    if name.startswith(("twinklenet.", "tpot."))}
        assert honeypot["twinklenet.rx"] and honeypot["tpot.gateway.rx"]
        assert {name: sharded["counters"].get(name)
                for name in honeypot} == honeypot

    def test_trace_without_file_prints_table(self, capsys):
        assert main(["experiment", "table2", "--trace"]) == 0
        assert "== trace" in capsys.readouterr().out


class TestImportCost:
    def test_cli_import_skips_scipy_stats(self):
        """Process start pays for what the CLI uses: importing the CLI
        module must not load ``scipy.stats`` (the BSTM fit needs only
        ``scipy.optimize``)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.__main__; "
             "print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert probe.stdout.strip() == "False"


class TestCliListJson:
    def test_list_json_structure(self, capsys):
        import json

        from repro.experiments import EXPERIMENTS
        from repro.experiments.report import JOBS_AWARE, STREAM_ELIGIBLE

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == list(EXPERIMENTS)
        for entry in payload:
            assert set(entry) == {"id", "standalone", "jobs", "stream",
                                  "description"}
            assert entry["jobs"] == (entry["id"] in JOBS_AWARE)
            assert entry["stream"] == (entry["id"] in STREAM_ELIGIBLE)
        assert any(entry["jobs"] for entry in payload)
        assert any(entry["stream"] for entry in payload)

    def test_list_help_documents_markers(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["list", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "'*'" in out and "'s'" in out


class TestCliModeConflicts:
    """Every mutually-exclusive mode combo (and out-of-range option
    value): one clean error line, exit 2."""

    CONFLICTS = [
        (["run", "--stream", "--cache"], "--stream is incompatible"),
        (["run", "--observe"], "--observe requires --stream"),
        (["run", "--spill", "--stream"], "--spill is incompatible"),
        (["run", "--spill", "--checkpoint"], "--spill is incompatible"),
        (["run", "--resume"], "--resume requires --checkpoint"),
        (["experiment", "table1", "--resume"],
         "--resume requires --checkpoint"),
        (["observe", "--cache"], "--stream is incompatible with --cache"),
        (["run", "--spill", "--spill-budget-mb", "0"],
         "--spill-budget-mb must be positive"),
    ]

    @pytest.mark.parametrize("argv,message", CONFLICTS,
                             ids=[" ".join(c[0]) for c in CONFLICTS])
    def test_conflict_refused_cleanly(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one line, no traceback
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    def test_stream_composes_with_no_cache(self, capsys):
        """--no-cache defuses the --cache conflict instead of refusing."""
        assert main(["run", "--stream", "--cache", "--no-cache",
                     "--days", "2", "--scale", "1e-6", "--tail", "2"]) == 0
        assert "Streaming scan summary" in capsys.readouterr().out


class TestCliObserve:
    def test_observe_end_to_end(self, capsys, tmp_path):
        import json

        data = tmp_path / "data"
        report_path = tmp_path / "drift.json"
        assert main(["observe", "--days", "3", "--scale", "1e-5",
                     "--tail", "2", "--data", str(data),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Observatory drift report" in out
        assert sorted(p.name for p in data.glob("observer-*.json")) == [
            "observer-00000.json", "observer-00001.json",
            "observer-00002.json"]
        report = json.loads(report_path.read_text())
        assert report["days"] == [0, 1, 2]

        # --summary-only re-renders from the same day files, run-free.
        assert main(["observe", "--summary-only", "--data", str(data)]) == 0
        assert "Observatory drift report" in capsys.readouterr().out

    def test_summary_only_without_data_is_clean_error(self, capsys,
                                                      tmp_path):
        missing = tmp_path / "never-written"
        assert main(["observe", "--summary-only",
                     "--data", str(missing)]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: no observer day files in {missing}"

    def test_run_observe_prints_summary(self, capsys, tmp_path):
        data = tmp_path / "data"
        assert main(["run", "--stream", f"--observe={data}",
                     "--days", "2", "--scale", "1e-6", "--tail", "2"]) == 0
        captured = capsys.readouterr()
        assert "Streaming scan summary" in captured.out
        assert "observatory: 2 day files" in captured.err
