"""Job parsing, batch running, corpus generation, CLI determinism."""

import json
import multiprocessing
import os
import random
import string
import time

import pytest

import wachlab.cep
import wachlab.cli
import wachlab.jobs
import wachlab.padic
from wachlab import ParseError, ValidationError
from wachlab.cep import cep_check, tam_exponent
from wachlab.cli import _run_one, _usable_cpus, _worker_count, main
from wachlab.filmod import FilPhiModule, dual_twist
from wachlab.jobs import (ModuleSpec, build_module, format_job, generate_corpus, parse_job,
                          run_job)

MINIMAL = """
p 3
N 8
M 20

module m1
rank 1
jumps 1
row 2
endmodule

command check m1
"""

RANK2 = """
p 3
N 20

module m1
rank 2
jumps 0 1
row 0 1
row 1 0
endmodule

command check m1
command slopes m1
command wach m1
command tam m1
command cep m1
command iwasawa-check
"""


class TestParse:
    def test_minimal(self):
        job = parse_job(MINIMAL)
        assert job.p == 3 and job.N == 8 and job.M == 20
        assert list(job.modules) == ["m1"]
        assert job.commands == [("check", "m1")]

    def test_window_violation(self):
        bad = MINIMAL.replace("jumps 1", "jumps 3")
        with pytest.raises(ValidationError):
            parse_job(bad)

    def test_singular_matrix(self):
        bad = MINIMAL.replace("row 2", "row 3")
        with pytest.raises(ValidationError):
            parse_job(bad)

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            parse_job(MINIMAL + "command frobnicate m1\n")

    def test_unknown_module_reference(self):
        with pytest.raises(ParseError):
            parse_job(MINIMAL + "command tam ghost\n")

    def test_base_p_entries(self):
        doc = MINIMAL.replace("row 2", "row p:2.0.1")
        job = parse_job(doc)
        assert job.modules["m1"].rows[0] == ["p:2.0.1"]
        # 2 + 0*3 + 1*9 = 11
        from wachlab.jobs import build_module
        D = build_module(job, job.modules["m1"])
        assert D.A.entries[0][0].coeffs[0] == 11

    def test_hand_built_spec_has_no_line(self):
        job = parse_job(MINIMAL)
        with pytest.raises(ParseError, match="bad matrix entry") as err:
            build_module(job, ModuleSpec("m2", 1, [1], [["1x"]]))
        assert err.value.line is None

    def test_missing_p(self):
        with pytest.raises(ParseError):
            parse_job("N 8\n")

    def test_tiny_truncation_rejected(self):
        with pytest.raises(ValidationError):
            parse_job(MINIMAL.replace("M 20", "M 2"))

    def test_repeated_header_key(self):
        # the second p follows the module block and the command, on line 13
        with pytest.raises(ParseError) as err:
            parse_job(MINIMAL + "p 5\n")
        assert err.value.line == 13 and err.value.field == "p"
        with pytest.raises(ParseError) as err:
            parse_job("p 3\nemit-matrices true\nemit-matrices false\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("header,name", [
        ("p 1000003\nN 6", "prime p"),       # the default M would be 12,000,024
        ("p 1009\nN 1\nM 1500", "prime p"),
        ("p 3\nN 201\nM 20", "precision N"),
        ("p 3\nN 8\nM 2001", "pi-truncation M"),
        ("p 101\nN 20", "pi-truncation M"),   # the default M = 2(p-1)N = 4000
        ("p 3\nN 8\nM 20\nMT 513", "T-truncation MT"),
    ])
    def test_caps(self, header, name):
        # rejected while validating, before any module is built or run
        with pytest.raises(ValidationError) as err:
            parse_job(header + MINIMAL.split("M 20", 1)[1])
        assert str(err.value).startswith(name + " = ")
        assert "exceeds the cap" in str(err.value)

    def test_caps_admit_their_bounds(self):
        job = parse_job("p 997\nN 200\nM 2000\nMT 512" + MINIMAL.split("M 20", 1)[1])
        assert (job.p, job.N, job.order(), job.M_T) == (997, 200, 2000, 512)

    def test_emit_matrices_needs_value(self):
        doc = "p 3\nemit-matrices\nmodule a\nrank 1\njumps 0\nrow 1\nendmodule\ncommand check a\n"
        with pytest.raises(ParseError) as err:
            parse_job(doc)
        assert err.value.line == 2

    def test_format_roundtrip(self):
        job = parse_job(RANK2)
        again = parse_job(format_job(job))
        assert again.p == job.p and again.commands == job.commands
        assert format_job(again) == format_job(job)


class TestRun:
    def test_end_to_end_rank_two(self):
        report = json.loads(run_job(parse_job(RANK2)))
        assert report["schema"] == "wachlab-report/2"
        assert report["ok"] is True
        by_cmd = {(r["command"], r["module"]): r for r in report["results"]}
        assert by_cmd[("slopes", "m1")]["data"]["slopes"] == ["1/2", "1/2"]
        wach = by_cmd[("wach", "m1")]["data"]
        assert wach["residual_zero"] is True
        assert wach["P_mod_pi_equals_phi"] is True
        assert wach["G_identity_mod_pi_pm1"] is True
        assert wach["q_cokernel"] is True
        assert by_cmd[("tam", "m1")]["data"]["exponent"] == 0
        cep = by_cmd[("cep", "m1")]["data"]
        assert cep["verdict"] is True
        iwa = by_cmd[("iwasawa-check", None)]["data"]
        assert all(iwa.values())

    def test_end_to_end_rank_one(self):
        doc = """
p 3
N 20

module w1
rank 1
jumps 1
row 2
endmodule

command wach w1
command tam w1
command cep w1
"""
        report = json.loads(run_job(parse_job(doc)))
        assert report["ok"] is True
        by_cmd = {r["command"]: r for r in report["results"]}
        assert by_cmd["wach"]["data"]["residual_zero"] is True
        assert by_cmd["tam"]["data"]["exponent"] == 0
        assert by_cmd["cep"]["data"]["verdict"] is True

    def test_empty_commands(self):
        doc = MINIMAL.split("command")[0]
        report = json.loads(run_job(parse_job(doc)))
        assert report["results"] == []
        assert report["ok"] is True
        assert report["modules"]["m1"]["t_H"] == 1

    def test_degenerate_reported_not_crashed(self):
        doc = """
p 3
N 12

module triv
rank 1
jumps 0
row 1
endmodule

command tam triv
"""
        report = json.loads(run_job(parse_job(doc)))
        assert report["ok"] is False
        entry = report["results"][0]
        assert entry["ok"] is False
        assert entry["error"]["type"] == "Degenerate"

    def test_rank_nine_slopes_error_keeps_check(self):
        # det(Phi) is 0 at N = 6, so slopes fails with PrecisionLoss; the
        # failure must stay the slopes command's entry and leave the check
        # result in the report
        rows = ["row " + " ".join(str(int(i == j) + (j > i) * (i + 2 * j) % 11)
                                  for j in range(9)) for i in range(9)]
        rows[8] = "row 1 0 0 0 0 0 0 0 1"
        doc = ("p 11\nN 6\n\nmodule big\nrank 9\njumps 0 0 0 1 1 1 2 2 2\n"
               + "\n".join(rows) + "\nendmodule\n\ncommand check big\n"
               "command slopes big\n")
        report = json.loads(run_job(parse_job(doc)))
        check, slopes = report["results"]
        assert check["ok"] is True
        assert check["data"]["strongly_divisible"] is True
        assert check["data"]["unit_root_rank"] == 3
        assert slopes["ok"] is False
        assert slopes["error"]["type"] == "PrecisionLoss"
        assert report["ok"] is False

    def test_false_verdict_is_not_ok(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(wachlab.jobs, "check_q_cokernel", lambda W: False)
        f = tmp_path / "job.wach"
        f.write_text(MINIMAL.replace("command check m1", "command wach m1"))
        rc = main(["run", str(f)])
        report = json.loads(capsys.readouterr().out)
        (wach,) = report["results"]
        assert wach["data"]["q_cokernel"] is False
        assert "error" not in wach
        assert wach["ok"] is False
        assert report["ok"] is False
        assert rc == 1

    def test_tamagawa_work_once_per_module(self, monkeypatch):
        # tam and cep share tam_exponent of the module and of its dual twist
        real, calls = tam_exponent, []
        def counting(D):
            calls.append(D)
            return real(D)
        monkeypatch.setattr(wachlab.jobs, "tam_exponent", counting)
        monkeypatch.setattr(wachlab.cep, "tam_exponent", counting)
        head = RANK2.split("command")[0]
        for order in (("tam", "cep"), ("cep", "tam"), ("cep", "cep")):
            calls.clear()
            job = parse_job(head + "".join(f"command {c} m1\n" for c in order))
            results = json.loads(run_job(job))["results"]
            assert len(calls) == 2
            D = build_module(job, job.modules["m1"])
            want = {"tam": {"exponent": real(D)},
                    "cep": dict(cep_check(D).as_dict(),
                                dual_jumps=list(dual_twist(D, 1).jumps))}
            for entry in results:
                assert entry["ok"] and entry["data"] == want[entry["command"]]

    @pytest.mark.parametrize("jumps,shift,row", [(0, 0, 1), (1, 3, 2), (0, -2, 2)])
    def test_cached_tamagawa_keeps_error_order(self, jumps, shift, row):
        # H^0 for both commands; both windows fail; only cep's Gamma* window
        # fails.  A failed tam_exponent is not raised ahead of cep_check's
        # own checks.
        doc = (f"p 3\nN 12\n\nmodule x\nrank 1\njumps {jumps}\nshift {shift}\n"
               f"row {row}\nendmodule\n\ncommand tam x\ncommand cep x\n")
        job = parse_job(doc)
        D = build_module(job, job.modules["x"])
        tam, cep = json.loads(run_job(job))["results"]
        for entry, direct in ((tam, lambda: {"exponent": tam_exponent(D)}),
                              (cep, lambda: cep_check(D).as_dict())):
            try:
                want = direct()
            except Exception as exc:
                assert entry["error"] == {"type": type(exc).__name__,
                                          "reason": str(exc)}
            else:
                assert want.items() <= entry["data"].items()

    def test_run_job_validates_its_job(self):
        job = parse_job(MINIMAL)
        job.N = 201
        with pytest.raises(ValidationError, match="precision N = 201 exceeds the cap 200"):
            run_job(job)

    def test_modules_built_once(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return FilPhiModule(*args, **kwargs)

        monkeypatch.setattr(wachlab.jobs, "FilPhiModule", counted)
        text = MINIMAL + "module m2\nrank 2\njumps 0 1\nrow 0 1\nrow 1 0\nendmodule\n"
        assert json.loads(run_job(parse_job(text)))["ok"]
        assert len(built) == 2
        # settings changed after parsing are validated and built again
        job = parse_job(MINIMAL)
        built.clear()
        job.N = 6
        assert json.loads(run_job(job))["job"]["N"] == 6
        assert len(built) == 1 and built[0][0].N == 6
        job.M = 0
        with pytest.raises(ValidationError, match="M must exceed p-1"):
            run_job(job)
        job.M = 20
        job.modules["m1"].rows[0][0] = "3"
        with pytest.raises(ValidationError, match="invertible"):
            run_job(job)

    def test_byte_determinism(self):
        job1 = parse_job(RANK2)
        job2 = parse_job(RANK2)
        assert run_job(job1) == run_job(job2)

    def test_emit_matrices(self):
        doc = RANK2.replace("p 3", "p 3\nemit-matrices true").replace("N 20", "N 8")
        report = json.loads(run_job(parse_job(doc)))
        wach = next(r for r in report["results"] if r["command"] == "wach")
        mats = wach["data"]["matrices"]
        assert set(mats) == {"P", "Q", "H", "G"}
        assert len(mats["P"]) == 2 and len(mats["P"][0][0]) > 0


RANK3 = """
p 5
N 20

module m
rank 3
jumps 2 2 3
row 82944503693329 2992200723162 51956061778382
row 88378620611763 42028214837045 84647760975887
row 24968019390229 26072014661944 37175500121789
endmodule

command check m
command slopes m
command tam m
command cep m
"""


def test_element_constructions(monkeypatch):
    # matrices are raw rows: run_job builds an OFElement only for each
    # determinant (9 here) and each characteristic-polynomial coefficient (4)
    calls = []
    init = wachlab.padic.OFElement.__init__

    def counted(self, ctx, coeffs):
        calls.append(coeffs)
        init(self, ctx, coeffs)

    job = parse_job(RANK3)
    monkeypatch.setattr(wachlab.padic.OFElement, "__init__", counted)
    report = json.loads(run_job(job))
    assert report["ok"] and len(report["results"]) == 4
    assert len(calls) <= 20


class TestFuzz:
    def test_malformed_documents_raise_structured(self):
        rng = random.Random(123)
        alphabet = string.ascii_lowercase + string.digits + " \n:#."
        words = ["p", "module", "rank", "jumps", "row", "command", "endmodule",
                 "check", "wach", "3", "-1", "p:", "seed"]
        for _ in range(300):
            n = rng.randrange(1, 12)
            parts = []
            for _ in range(n):
                if rng.random() < 0.6:
                    parts.append(rng.choice(words))
                else:
                    parts.append("".join(rng.choice(alphabet)
                                         for _ in range(rng.randrange(1, 8))))
                parts.append(rng.choice([" ", "\n"]))
            text = "".join(parts)
            try:
                job = parse_job(text)
                run_job(job)
            except (ParseError, ValidationError):
                pass  # structured rejection is the contract


def _small_corpus():
    """Two small eligible jobs each at p = 3, 5, 7."""
    jobs = []
    for p in (3, 5, 7):
        for job in generate_corpus(p, 2, 2, seed=p):
            job.N, job.M, job.M_T = 6, 10 * (p - 1), 8
            jobs.append(job)
    return jobs


FUZZ_TOKENS = ("p", "f", "N", "M", "MT", "seed", "module", "rank", "jumps",
               "row", "endmodule", "command", "check", "slopes", "wach", "tam",
               "cep", "iwasawa-check", "emit-matrices", "true", "m0", "m1",
               "p:1.2", "p:", "#", "-1", "0", "1", "2", "3", "4", "5", "7",
               "x", "1.5", "")


def _mutate(lines: list[str], edits) -> list[str]:
    """Apply (op, i, j, token) edits to a copy of the lines of a job text."""
    lines = list(lines)
    for op, i, j, token in edits:
        i %= len(lines) + 1
        if op == "insert" or not lines:
            lines.insert(i, f"{token} {FUZZ_TOKENS[j % len(FUZZ_TOKENS)]}")
            continue
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "number":
            words = lines[i].split()
            at = [k for k, w in enumerate(words) if w.lstrip("-").isdigit()]
            if at:
                words[at[j % len(at)]] = str(j % 10 - 1)
                lines[i] = " ".join(words)
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[j % len(words)] = token
            lines[i] = " ".join(words)
    return lines


def test_batch_runner_fuzz(tmp_path):
    # mutated seed job texts through the batch runner: every input yields a
    # structured report carrying the schema, and none raises
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seeds = []
    for job in _small_corpus():  # with every command
        job.commands.insert(1, ("slopes", job.commands[0][1]))
        job.commands.append(("iwasawa-check", None))
        seeds.append(format_job(job).splitlines())
    # most edits change one number and keep the document's structure
    ops = ("number",) * 4 + ("delete", "duplicate", "swap", "replace", "insert")
    edit = st.tuples(st.sampled_from(ops), st.integers(0, 10**6),
                     st.integers(0, 10**6), st.sampled_from(FUZZ_TOKENS))
    size = st.one_of(st.none(), st.integers(1, 8))
    path = tmp_path / "job.wach"

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(seed=st.sampled_from(seeds),
                      edits=st.lists(edit, min_size=1, max_size=4),
                      N=size, M=st.integers(7, 60),
                      MT=st.one_of(st.none(), st.integers(1, 16)))
    def check(seed, edits, N, M, MT):
        path.write_text("\n".join(_mutate(seed, edits)) + "\n")
        report, ok = _run_one(str(path), {"N": N, "M": M, "MT": MT, "seed": None})
        body = json.loads(report)
        assert body["schema"] == wachlab.jobs.SCHEMA
        assert ok is body["ok"]

    check()


class TestCorpus:
    def test_deterministic(self):
        a = generate_corpus(3, 3, 5, seed=1)
        b = generate_corpus(3, 3, 5, seed=1)
        assert [format_job(x) for x in a] == [format_job(y) for y in b]

    def test_all_pass_check(self):
        jobs = generate_corpus(3, 3, 10, seed=1)
        assert len(jobs) == 10
        for job in jobs:
            job.N = 12  # keep the suite quick; checks are precision-robust here
            job.M = 30
            report = json.loads(run_job(job))
            assert report["ok"] is True, report

    def test_count_zero(self):
        assert generate_corpus(3, 3, 0, seed=9) == []

    def test_top_eligibility(self):
        jobs = generate_corpus(3, 2, 5, seed=4, eligibility="top")
        from wachlab.jobs import build_module
        from wachlab.filmod import top_slope_absent
        for job in jobs:
            for spec in job.modules.values():
                assert top_slope_absent(build_module(job, spec))


class TestCli:
    def test_run_single_file(self, tmp_path, capsys):
        f = tmp_path / "job.wach"
        f.write_text(MINIMAL)
        rc = main(["run", str(f)])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert rc == 0
        assert report["ok"] is True

    def test_exit_code_on_degenerate(self, tmp_path, capsys):
        f = tmp_path / "job.wach"
        f.write_text(MINIMAL.replace("command check m1", "command tam m1")
                     .replace("jumps 1", "jumps 0").replace("row 2", "row 1"))
        rc = main(["run", str(f)])
        assert rc == 1

    def test_parse_error_is_structured(self, tmp_path, capsys):
        f = tmp_path / "bad.wach"
        f.write_text("garbage here\n")
        rc = main(["run", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["error"]["type"] == "ParseError"

    def test_emit_matrices_without_value_is_structured(self, tmp_path, capsys):
        f = tmp_path / "bad.wach"
        f.write_text("p 3\nemit-matrices\nmodule a\nrank 1\njumps 0\nrow 1\n"
                     "endmodule\ncommand check a\n")
        rc = main(["run", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["error"]["type"] == "ParseError" and out["error"]["line"] == 2

    @pytest.mark.parametrize("doc,line", [
        (MINIMAL.replace("p 3", "p 5").replace("row 2", "row p:7"), 9),
        (MINIMAL.replace("row 2", "row 1x"), 9),
        (RANK2.replace("row 1 0", "row 1 x"), 9),
        (MINIMAL + "command tam ghost\ncommand cep ghost\n", 13),
    ], ids=["digit", "entry", "second-row", "unknown-module"])
    def test_parse_error_names_its_line(self, tmp_path, capsys, doc, line):
        # a bad entry names its row's line, an unknown module its first command's
        f = tmp_path / "bad.wach"
        f.write_text(doc)
        rc = main(["run", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["error"]["type"] == "ParseError" and out["error"]["line"] == line

    def test_non_utf8_file_is_structured(self, tmp_path, capsys):
        f = tmp_path / "bad.wach"
        f.write_bytes(MINIMAL.encode() + b"# \xff\n")
        rc = main(["run", str(f)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1 and out["ok"] is False
        assert out["error"]["type"] == "ParseError"
        assert "UTF-8" in out["error"]["reason"]

    def test_bad_override_is_structured(self, tmp_path, capsys):
        f = tmp_path / "job.wach"
        f.write_text(RANK2)
        rc = main(["run", str(f), "--M", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert "error" in out

    def test_bad_override_report_pinned(self, tmp_path, capsys):
        # the override is rejected inside run_job; the report is the one the
        # parse-time check wrote
        f = tmp_path / "job.wach"
        f.write_text(RANK2)
        assert main(["run", str(f), "--M", "2"]) == 1
        assert capsys.readouterr().out == (
            '{"error":{"reason":"pi-truncation M must exceed p-1",'
            '"type":"ValidationError"},"input":"' + str(f) + '","ok":false,'
            '"schema":"wachlab-report/2"}\n')

    def test_thread_count_determinism(self, tmp_path):
        files = []
        for i, job in enumerate(generate_corpus(3, 2, 4, seed=7)):
            f = tmp_path / f"j{i}.wach"
            f.write_text(format_job(job))
            files.append(str(f))
        out1 = tmp_path / "r1.json"
        out4 = tmp_path / "r4.json"
        assert main(["run", *files, "--N", "10", "--M", "24",
                     "--output", str(out1), "--jobs", "1"]) == 0
        assert main(["run", *files, "--N", "10", "--M", "24",
                     "--output", str(out4), "--jobs", "4"]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_worker_count_bounds(self, monkeypatch):
        # pure arithmetic: no process is started for any K
        cpus = _usable_cpus()
        assert cpus >= 1
        assert _worker_count(10**6, 10**6) == cpus
        assert _worker_count(10**6, 1) == 1
        monkeypatch.setattr(wachlab.cli, "_usable_cpus", lambda: 4)
        assert _worker_count(10**6, 10**6) == 4
        assert _worker_count(10**6, 3) == 3
        assert _worker_count(2, 10**6) == 2

    @pytest.mark.parametrize("jobs", ("0", "-3"))
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        f = tmp_path / "job.wach"
        f.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(f), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_process_determinism_mixed_p(self, tmp_path, monkeypatch):
        # two workers even on a one-CPU host
        monkeypatch.setattr(wachlab.cli, "_usable_cpus", lambda: 2)
        files = []
        for i, job in enumerate(_small_corpus()):
            f = tmp_path / f"job{i}.wach"
            f.write_text(format_job(job))
            files.append(str(f))
        bad_utf8 = tmp_path / "bad_utf8.wach"
        bad_utf8.write_bytes(MINIMAL.encode() + b"# \xff\n")
        bad_parse = tmp_path / "bad_parse.wach"
        bad_parse.write_text("garbage here\n")
        files[2:2] = [str(tmp_path / "missing.wach"), str(bad_utf8), str(bad_parse)]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"r{jobs}.json"
            rc = main(["run", *files, "--output", str(out), "--jobs", jobs])
            outputs.append((rc, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1
        types = [r.get("error", {}).get("type")
                 for r in json.loads(outputs[0][1])["reports"]]
        assert types[2:5] == ["IOError", "ParseError", "ParseError"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a worker inherits the patched run_job only under fork")
    def test_lost_worker_is_structured(self, tmp_path, monkeypatch):
        # the worker running seed 99 dies without reporting; the input that
        # finished before it keeps its report
        monkeypatch.setattr(wachlab.cli, "_usable_cpus", lambda: 2)
        real_run_job = wachlab.cli.run_job

        def dying_run_job(job):
            if job.seed == 99:
                time.sleep(0.3)
                os._exit(3)
            return real_run_job(job)

        monkeypatch.setattr(wachlab.cli, "run_job", dying_run_job)
        files = []
        for name, seed in (("first", 1), ("dies", 99), ("last", 2)):
            f = tmp_path / f"{name}.wach"
            f.write_text(MINIMAL + f"seed {seed}\n")
            files.append(str(f))
        out = tmp_path / "r.json"
        assert main(["run", *files, "--output", str(out), "--jobs", "2"]) == 1
        reports = json.loads(out.read_text())["reports"]
        assert len(reports) == 3
        assert all(r["schema"] == wachlab.jobs.SCHEMA for r in reports)
        assert reports[0]["ok"] is True and "error" not in reports[0]
        assert reports[1]["ok"] is False and reports[1]["input"] == files[1]
        assert reports[1]["error"]["type"] == "WorkerError"
        assert reports[2]["ok"] is True or reports[2]["error"]["type"] == "WorkerError"

    def test_corpus_command(self, tmp_path, capsys):
        rc = main(["corpus", "--p", "3", "--count", "3", "--seed", "2",
                   "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        files = sorted((tmp_path / "c").glob("*.wach"))
        assert len(files) == 3
        rc = main(["run", *[str(f) for f in files], "--N", "10", "--M", "24",
                   "--output", str(tmp_path / "rep.json")])
        assert rc == 0
