import csv
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from cdam.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main, parse_graph_spec, parse_pattern_spec
from cdam.dynamics import ModelParams, init_state, run
from cdam.graphs import build_cycle, normalize
from cdam.ingest import random_patterns
from cdam.reports import write_pnm
from oracles import naive_energy_directed, step_by_hand


class TestGraphSpecs:
    def test_builders(self):
        assert parse_graph_spec("cycle:30").p == 30
        assert parse_graph_spec("dicycle:50").directed
        assert parse_graph_spec("barbell:10,10").p == 30
        assert parse_graph_spec("karate").p == 34
        assert parse_graph_spec("regular:12,3,7").p == 12

    def test_file_spec(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("undirected\n0 1\n1 2\n")
        assert parse_graph_spec(f"file:{path}").p == 3

    def test_bad_specs(self):
        from cdam.errors import CdamError
        for spec in ("cycle:2", "mesh:4", "barbell:1,0", "karate:9"):
            with pytest.raises(CdamError):
                parse_graph_spec(spec)


class TestSimulate:
    def test_writes_trace_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--a", "1", "--h", "0", "--graph", "cycle:10",
                     "--patterns", "random:300", "--trigger", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        header, first = (out / "trace.csv").read_text().splitlines()[:2]
        assert header.startswith("t,mean_activity,sd_activity,energy,r_0")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trigger"] == 5
        # the triggered pattern ends with the top correlation
        rows = (out / "trace.csv").read_text().splitlines()
        final = [float(v) for v in rows[-1].split(",")[4:]]
        assert final.index(max(final)) == 5

    def test_reproducible_byte_identical(self, tmp_path):
        args = ["simulate", "--graph", "cycle:8", "--patterns", "random:200",
                "--trigger", "1", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_energy_run_reproducible_byte_identical(self, tmp_path):
        args = ["simulate", "--graph", "cycle:8", "--patterns", "random:200",
                "--trigger", "2", "--seed", "4", "--h", "0.5", "--a", "0.5", "--energy"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("trace.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("with_energy", [False, True])
    def test_trace_csv_reads_back_to_runs_arrays(self, tmp_path, with_energy):
        out = tmp_path / "run"
        args = ["simulate", "--graph", "cycle:8", "--patterns", "random:200", "--trigger", "2",
                "--seed", "4", "--h", "0.5", "--a", "0.5", "--out", str(out)]
        assert main(args + ["--energy"] * with_energy) == EXIT_OK
        graph = parse_graph_spec("cycle:8")
        patterns = parse_pattern_spec("random:200", graph.p, 4)
        state = init_state(patterns, 2, seed=4)
        trace = run(state, patterns, graph, ModelParams(a=0.5, h=0.5), with_energy=with_energy)
        with open(out / "trace.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:4] == ["t", "mean_activity", "sd_activity", "energy"]
        assert [row[0] for row in rows] == [str(t) for t in range(trace.steps + 1)]

        def column(i):
            return np.array([float(row[i]) for row in rows]).view(np.uint64)

        assert np.array_equal(column(1), trace.mean_activity.view(np.uint64))
        assert np.array_equal(column(2), trace.sd_activity.view(np.uint64))
        if with_energy:
            assert np.array_equal(column(3), trace.energies.view(np.uint64))
        else:
            assert {row[3] for row in rows} == {""}
        r = np.array([[float(v) for v in row[4:]] for row in rows])
        assert np.array_equal(r.view(np.uint64), trace.correlations.view(np.uint64))

    def test_zero_frame_samples_exit_2(self, tmp_path, capsys, recwarn):
        frames = tmp_path / "frames"
        frames.mkdir()
        for k in range(3):
            write_pnm(frames / f"f{k}.pgm", np.full((2, 2), 10.0 * (k + 1)))
        code = main(["simulate", "--graph", "cycle:3", "--patterns", f"frames:{frames},0",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n=0" in err and "pearson" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_comment_only_csv_frame_exits_2_with_one_error_line(self, tmp_path, capsys, recwarn):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f.csv").write_text("# nothing\n")
        code = main(["simulate", "--graph", "cycle:3", "--patterns", f"frames:{frames},1",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "CSV frame" in err[0]
        assert not recwarn.list

    @pytest.mark.parametrize("flag, value, message", [
        ("--a", "nan", "a must be finite"), ("--h", "inf", "h must be finite"),
        ("--beta", "inf", "beta must be finite"), ("--eta", "inf", "eta must be finite"),
        ("--noise-c", "nan", "noise amplitude"), ("--noise-c", "inf", "noise amplitude"),
        ("--tol", "nan", "fixed_point_tol"), ("--tol", "inf", "fixed_point_tol"),
    ])
    def test_non_finite_model_value_exits_2(self, tmp_path, capsys, recwarn, flag, value,
                                            message):
        out = tmp_path / "run"
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
                     "--steps", "3", flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists() and not recwarn.list

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_zero_or_negative_tol_runs_every_step(self, tmp_path, tol):
        out = tmp_path / "run"
        assert main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
                     "--steps", "4", "--tol", tol, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["steps_executed"] == 4

    @pytest.mark.parametrize("patterns", ["idx:{missing}", "frames:{missing},10"])
    def test_missing_pattern_file_exits_2(self, tmp_path, capsys, patterns):
        spec = patterns.format(missing=tmp_path / "missing")
        code = main(["simulate", "--graph", "cycle:3", "--patterns", spec,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "missing" in capsys.readouterr().err

    def test_idx_archive_runs(self, tmp_path):
        images = tmp_path / "images.idx"
        pixels = np.random.default_rng(0).integers(0, 256, 3 * 16, dtype=np.uint8)
        images.write_bytes(struct.pack(">IIII", 0x803, 3, 4, 4) + pixels.tobytes())
        labels = tmp_path / "labels.idx"
        labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes([7, 1, 4]))
        run = ["simulate", "--graph", "cycle:3", "--steps", "3", "--out", str(tmp_path / "run")]
        assert main(run + ["--patterns", f"idx:{images}"]) == EXIT_OK
        # the archive is the only input an idx spec takes
        for extra in (f",{labels}", f",{labels},more"):
            assert main(run + ["--patterns", f"idx:{images}{extra}"]) == EXIT_USAGE

    def test_invalid_trigger_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
                     "--trigger", "17", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_energy_column_populated(self, tmp_path):
        out = tmp_path / "e"
        main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
              "--steps", "5", "--energy", "--out", str(out)])
        row = (out / "trace.csv").read_text().splitlines()[1].split(",")
        assert row[3] != ""

    def test_directed_energy_column_matches_the_oracle(self, tmp_path):
        # a directed graph's energy is one log over its raw edges (naive_energy_directed)
        out = tmp_path / "e"
        assert main(["simulate", "--graph", "dicycle:6", "--patterns", "random:200",
                     "--a", "0.5", "--h", "0.5", "--energy", "--steps", "5",
                     "--out", str(out)]) == EXIT_OK
        graph, patterns = build_cycle(6, directed=True), random_patterns(200, 6, 0)
        params = ModelParams(a=0.5, h=0.5)
        states = step_by_hand(init_state(patterns, 0, seed=0), patterns, normalize(graph),
                              params, 5)
        cols = [list(patterns.values[:, mu]) for mu in range(patterns.p)]
        want = [naive_energy_directed(list(s), cols, graph.edges, params.a, params.h, params.beta)
                for s in states]
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        got = [float(row.split(",")[3]) for row in rows]
        assert len(got) == len(want) == 6
        assert np.max(np.abs(np.array(got) - want)) < 1e-10

    def test_writes_only_inside_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only"
        main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
              "--steps", "3", "--out", str(out)])
        assert {p.name for p in tmp_path.iterdir()} == {"only"}

    def test_steps_beyond_64_bits_exit_2_before_the_run(self, tmp_path, capsys):
        # the manifest could not record such a count, so nothing is written
        out = tmp_path / "run"
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
                     "--steps", str(10**20), "--tol", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --steps must be an integer below 2**64, got 100000000000000000000\n")
        assert not out.exists()

    def test_unencodable_manifest_exits_2_and_leaves_no_directory(self, tmp_path, capsys):
        # a graph file named with the byte 0xff: its path is no UTF-8 string for the manifest
        graph = tmp_path / os.fsdecode(b"g\xff.txt")
        graph.write_text("undirected\n0 1\n1 2\n")
        out = tmp_path / "S"
        code = main(["simulate", "--graph", f"file:{graph}", "--patterns", "random:50",
                     "--steps", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {out / 'manifest.json'}: str is not valid UTF-8: surrogates not allowed\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_divergence_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50",
                     "--a", "1e308", "--eta", "1", "--steps", "30",
                     "--out", str(tmp_path / "div")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("extra", [["--noise-c", "1e200"], ["--noise-c", "1e154", "--energy"]])
    def test_non_finite_readout_exits_3_without_a_trace(self, tmp_path, capsys, extra):
        out = tmp_path / "run"
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50", *extra,
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "non-finite readout at step 0" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [("--beta", "1e308"), ("--eta", "1e300"),
                                             ("--a", "1e308")])
    def test_divergence_is_one_message_and_no_warning(self, tmp_path, capsys, flag, value):
        code = main(["simulate", "--graph", "cycle:5", "--patterns", "random:50", flag, value,
                     "--out", str(tmp_path / "div")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.count("\n") == 1


class TestExperimentCommand:
    def test_unknown_name_lists_valid(self, tmp_path, capsys):
        code = main(["experiment", "bogus", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "four-modes" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sequence", "retrieval-sweep"])
    def test_fixed_size_experiments_reject_n(self, tmp_path, capsys, name):
        out = tmp_path / "x"
        code = main(["experiment", name, "--n", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["four-modes", "hop-range", "miyashita", "karate",
                                      "tutte", "barbell", "automaton-sweep", "ei-balance"])
    def test_zero_n_is_rejected_not_defaulted(self, tmp_path, capsys, name):
        out = tmp_path / "zero"
        assert main(["experiment", name, "--n", "0", "--out", str(out)]) == EXIT_USAGE
        assert "n=0" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("name", ["hop-range", "miyashita", "karate", "tutte", "barbell",
                                      "sequence", "retrieval-sweep", "automaton-sweep",
                                      "ei-balance"])
    def test_fixed_graph_experiments_reject_graph(self, tmp_path, capsys, name):
        out = tmp_path / "x"
        code = main(["experiment", name, "--graph", "cycle:10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--graph" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["four-modes", "hop-range", "miyashita", "karate",
                                      "tutte", "barbell", "ei-balance"])
    def test_zero_variance_correlation_exits_2(self, tmp_path, capsys, recwarn, name):
        out = tmp_path / "one"
        assert main(["experiment", name, "--n", "1", "--out", str(out)]) == EXIT_USAGE
        assert "pearson undefined" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["experiment", "ei-balance", "--n", "20", "--out", str(blocker / "x")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_hop_range_report_tree_byte_identical(self, tmp_path):
        trees = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["experiment", "hop-range", "--n", "100", "--out", str(out)]) == EXIT_OK
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 14
        assert trees[0] == trees[1]

    def test_small_four_modes(self, tmp_path):
        out = tmp_path / "fm"
        code = main(["experiment", "four-modes", "--graph", "cycle:6",
                     "--n", "80", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["name"] == "four-modes"
        assert (out / "matrices").is_dir()

    def test_automaton_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["experiment", "automaton-sweep", "--n", "400", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["outputs"]["landed"]["Marge+husband"] == "Homer"


    def test_experiments_are_called_by_their_module_names(self, tmp_path, monkeypatch):
        # perfbench's tracer wraps these names, so a run must look them up when it runs
        import inspect

        from cdam import experiments
        calls = []
        for name in ("sequence_recall", "hop_range"):
            original = getattr(experiments, name)

            def record(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, inspect.signature(_original).bind(*args, **kwargs).arguments))
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, name, record)
        assert main(["experiment", "sequence", "--seed", "3",
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        assert main(["experiment", "hop-range", "--n", "60", "--seed", "2",
                     "--out", str(tmp_path / "h")]) == EXIT_OK
        assert [name for name, _ in calls] == ["sequence_recall", "hop_range"]
        sequence, hop = calls[0][1], calls[1][1]
        assert sequence["seed"] == 4
        assert np.array_equal(sequence["patterns"].values, experiments.surrogate_frames(3).values)
        assert hop == {"n": 60, "seed": 2}


class TestAutomatonCommand:
    def test_script_replay(self, tmp_path, capsys):
        code = main(["automaton", "--script", "husband,brother,daughter",
                     "--start", "Marge", "--n", "600",
                     "--out", str(tmp_path / "auto")])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert "Marge + husband -> Homer" in lines[0]
        assert "Homer + brother -> Homer" in lines[1]
        assert "Homer + daughter -> Lisa" in lines[2]
        transcript = (tmp_path / "auto" / "transcript.txt").read_text()
        assert "Lisa" in transcript

    def test_unknown_label_keeps_state(self, capsys):
        code = main(["automaton", "--script", "cousin", "--start", "Bart", "--n", "300"])
        assert code == EXIT_OK
        assert "unknown label" in capsys.readouterr().out

    def test_repl(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(":state Marge\nhusband\n:quit\n"))
        code = main(["automaton", "--repl", "--n", "600"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "state set to Marge" in out
        assert "Marge + husband -> Homer" in out

    def test_needs_mode(self, capsys):
        assert main(["automaton"]) == EXIT_USAGE

    def test_mode_checked_before_the_runner_is_built(self, capsys):
        # numpy could not allocate 10**12 neurons; the missing mode is reported instead
        assert main(["automaton", "--n", str(10**12)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: automaton needs --script or --repl\n"

    def test_spec_file(self, tmp_path, capsys):
        spec = {"states": ["on", "off"],
                "transitions": [["on", "toggle", "off"], ["off", "toggle", "on"]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        code = main(["automaton", "--spec", str(path), "--script", "toggle,toggle",
                     "--start", "on", "--n", "400"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "on + toggle -> off" in out
        assert "off + toggle -> on" in out

    def test_spec_file_with_list_valued_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"states": ["on", ["off"]],
                                    "transitions": [["on", "toggle", "on"]]}))
        code = main(["automaton", "--spec", str(path), "--script", "toggle", "--n", "400"])
        assert code == EXIT_USAGE
        assert "states must be a list of strings" in capsys.readouterr().err


class TestRejectedInputs:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", "cycle:5", "--patterns", "random:10", "--seed", "-1"],
        ["experiment", "hop-range", "--n", "20", "--seed", "-1"],
        ["experiment", "sequence", "--seed", "-2"],
        ["automaton", "--script", "wife", "--seed", "-1", "--n", "50"],
        ["experiment", "ei-balance", "--n", "20", "--seed", str(2**64)],
    ], ids=["simulate", "experiment", "experiment-sequence", "automaton", "beyond-64-bits"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --seed") and "pattern spec" not in err
        assert not out.exists()

    # above the cap only: a coupling at the cap takes 2 GiB
    @pytest.mark.parametrize("spec", ["cycle:16385", "cycle:1000000", "dicycle:16385",
                                      "barbell:8192,1", "barbell:100000,0", "barbell:2,16381",
                                      "regular:16386,3,7"])
    def test_graph_above_vertex_cap_exits_2(self, tmp_path, capsys, spec):
        out = tmp_path / "x"
        code = main(["simulate", "--graph", spec, "--patterns", "random:10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "limit of 16384" in capsys.readouterr().err
        assert not out.exists()

    # 10**15 neurons: numpy refuses the allocation without touching memory
    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", "cycle:30", "--patterns", f"random:{10**15}"],
        ["experiment", "hop-range", "--n", str(10**15)],
    ], ids=["simulate", "experiment"])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "allocate" in err
        assert not out.exists()

    # 10**20 neurons: more than numpy can index, so no array of them can be sized
    @pytest.mark.parametrize("argv", [
        ["experiment", "ei-balance", "--n", str(10**20)],
        ["automaton", "--script", "wife", "--n", str(10**20)],
    ], ids=["experiment", "automaton"])
    def test_unsizable_n_exits_2_without_a_traceback(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot size") and str(10**20) in err
        assert err.count("\n") == 1
        assert not out.exists()

    # one malformed input per cause; stderr is exactly one line naming it
    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--graph", "cycle:2", "--patterns", "random:10"],
         "bad graph spec 'cycle:2': cycle needs p >= 3, got 2"),
        (["simulate", "--graph", "regular:10,9,0", "--patterns", "random:10"],
         "bad graph spec 'regular:10,9,0': no simple 9-regular graph on 10 vertices in 1000 draws"),
        (["automaton", "--script", "wife", "--start", "Nobody", "--n", "50"],
         "unknown state 'Nobody'"),
        (["simulate", "--graph", "file:noheader.txt", "--patterns", "random:10"],
         "bad graph spec 'file:noheader.txt': line 1: expected 'directed' or 'undirected' header"),
        (["simulate", "--graph", "cycle:5", "--patterns", "random:50", "--trigger", "99"],
         "trigger 99 is not a pattern index in [0,5)"),
        (["experiment", "hop-range", "--n", "1"],
         "pearson undefined: zero-variance pattern"),
        (["simulate", "--graph", "dicycle:5", "--patterns", "random:50", "--a", "0", "--h", "0",
          "--energy"],
         "energy log argument 0.0 <= 0"),
        (["simulate", "--graph", "cycle:3", "--patterns", "frames:garbled,4"],
         "bad pattern spec 'frames:garbled,4': garbled/f.pgm: not a P2/P3/P5/P6 netpbm file"),
        (["simulate", "--graph", "cycle:3", "--patterns", "frames:truncated,4"],
         "bad pattern spec 'frames:truncated,4': truncated/f.pgm: 1 payload bytes, header needs 4"),
        (["simulate", "--graph", "cycle:3", "--patterns", "frames:empty,4"],
         "bad pattern spec 'frames:empty,4': no frame files found in empty"),
        (["simulate", "--graph", "cycle:3", "--patterns", "frames:mixed,4"],
         "bad pattern spec 'frames:mixed,4': mixed mixes CSV frame b.csv and netpbm frame a.pgm;"
         " use one kind"),
        (["automaton", "--spec", "duplicate.json", "--script", "x"],
         "state names must be unique"),
        # the negative edge leaves vertices 0 and 1 with degree 0, which normalize would zero
        (["simulate", "--graph", "file:neg.txt", "--patterns", "random:50", "--a", "0", "--h", "1"],
         "bad graph spec 'file:neg.txt': edge (0,1) weight -1.0 not positive"),
        (["experiment", "four-modes", "--graph", "file:neg.txt", "--n", "50"],
         "bad graph spec 'file:neg.txt': edge (0,1) weight -1.0 not positive"),
        # vertex 0's degree overflows, which normalize would zero
        (["experiment", "four-modes", "--graph", "file:deg.txt", "--n", "200"],
         "bad graph spec 'file:deg.txt': weighted degree of vertex 0 is not finite"),
    ], ids=["size", "retries", "unknown-state", "graph-file", "trigger", "correlation", "energy",
            "pnm-format", "pnm-length", "no-frames", "mixed-frames", "spec", "weight-simulate",
            "weight-experiment", "degree"])
    def test_malformed_input_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys, argv,
                                                      line):
        monkeypatch.chdir(tmp_path)
        Path("noheader.txt").write_text("0 1\n1 2\n")
        Path("neg.txt").write_text("undirected\n0 1 -1\n1 2 1\n2 0 1\n")
        Path("deg.txt").write_text("undirected\n0 1 1e308\n0 2 1e308\n1 2\n")
        for name in ("garbled", "truncated", "empty", "mixed"):
            Path(name).mkdir()
        Path("mixed/a.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
        Path("mixed/b.csv").write_text("1000,1\n2,3\n")
        Path("garbled/f.pgm").write_bytes(b"XX\n")
        Path("truncated/f.pgm").write_bytes(b"P5\n2 2\n255\n\x01")
        Path("duplicate.json").write_text(json.dumps({"states": ["a", "a"], "transitions": []}))
        assert main(argv + ["--out", "out"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not Path("out").exists()
