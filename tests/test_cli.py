"""Command-line surface: exit codes, report rendering, byte stability."""

import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import ramcalc
from ramcalc import belyi, cli, contract
from ramcalc.cli import main
from ramcalc.exact import excerpt
from ramcalc.manifest import bundled_text


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "prop9.chain"
    p.write_text(bundled_text("prop9.chain"))
    return str(p)


@pytest.fixture
def cert_file(tmp_path):
    p = tmp_path / "prop7a.cert"
    p.write_text(bundled_text("prop7a.cert"))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_interpreter(script: str) -> str:
    """Last stdout line of script, run after `from ramcalc import cli` in
    a fresh interpreter, since other tests load sympy into this one."""
    src = Path(ramcalc.__file__).resolve().parents[1]
    prelude = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from ramcalc import cli
"""
    proc = subprocess.run([sys.executable, "-c", prelude + script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def chain_mutants(name: str, seeds=range(4)) -> dict:
    """{label: text} of mutants of a bundled chain: per seed, one claimed
    index raised by 1 to 3 and one claimed output point replaced by a
    rational with denominator 101, which no bundled chain produces; then
    hand-picked edits that name irrational points, a swapped output
    point and a ramification claim at t."""
    lines = bundled_text(name).splitlines()
    mutants = {}
    for seed in seeds:
        rng = random.Random(f"{name} {seed}")
        for key in ("ram", "out"):
            row = rng.choice([i for i, ln in enumerate(lines) if ln.startswith(key + " ")])
            entries = lines[row].split()[1:]
            j = rng.randrange(len(entries))
            if key == "ram":
                point, _, index = entries[j].rpartition(":")
                entries[j] = f"{point}:{int(index) + rng.randint(1, 3)}"
            else:
                entries[j] = f"{rng.choice([n for n in range(1, 10000) if n % 101])}/101"
            edited = lines[:row] + [" ".join([key] + entries)] + lines[row + 1:]
            mutants[f"{key}-{seed}"] = "\n".join(edited) + "\n"
    text = bundled_text(name)
    swap = ("t^2+t^3 inf", "t^2+t^4 inf") if name == "prop9.chain" else ("t^2+t^5 ", "t^2+t^4 ")
    for label, (old, new) in (("out-irrational", swap), ("ram-irrational", ("ram 1:2", "ram t:2"))):
        assert text.count(old) == 1
        mutants[label] = text.replace(old, new)
    return mutants

class TestVerify:
    def test_bundled_chain_passes(self, capsys, chain_file):
        code, out, _ = run(capsys, "verify", chain_file)
        assert code == 0
        assert "result: PASS" in out

    def test_bundled_cert_passes(self, capsys, cert_file):
        code, out, _ = run(capsys, "verify", cert_file)
        assert code == 0
        assert "result: PASS" in out

    def test_param_override(self, capsys, cert_file):
        code, out, _ = run(capsys, "verify", cert_file, "--param", "n=4,5")
        assert code == 0

    BOUNDS_CERT = (
        "ramcalc-cert 1\nname bounds-rules\nparameter n\ninstances 1 2\n"
        "node A\nnode B\nnode D\nnode Q\nnode P\n"
        "arrow f A P degree=-\nfiber f 0 divides 4\nfiber f 1 all 6\n"
        "arrow g B P degree=-\nfiber g 1 all 2\n"
        "arrow h D P degree=-\nfiber h 1 divides 4\n"
        "arrow p Q D degree=-\nfiber p q multiple 3\n"
        "claim profile f given\nclaim profile g given\nclaim profile h given\n"
        "claim unramified u f g\nclaim project p f h at 1\nclaim conclude A B\n"
    )

    def test_claims_true_on_the_bounds_pass(self, capsys, tmp_path):
        # over 0 the g fiber is unlisted (index 1), which divides every
        # index dividing 4; over 1, 6/gcd(6, b) for b | 4 is 3 or 6
        p = tmp_path / "bounds.cert"
        p.write_text(self.BOUNDS_CERT)
        code, out, _ = run(capsys, "verify", str(p), "--json", "--deterministic")
        assert code == 0
        verdicts = {v["subject"]: (v["status"], v["details"]) for v in json.loads(out)["verdicts"]}
        assert verdicts["u"] == ("pass", ["over 1: all(2) | all(6) symbolically"])
        assert verdicts["p"] == ("pass", [])
        assert verdicts["A => B"] == ("pass", [])

    @pytest.mark.parametrize("inner_fibers,detail", [
        ("fiber i z all 2\nfiber i w all 4\n", "inner fiber claims not uniform"),
        ("", "inner arrow has no fiber claims"),
    ])
    def test_compose_without_one_inner_claim_fails(self, capsys, tmp_path, inner_fibers, detail):
        p = tmp_path / "compose.cert"
        p.write_text(
            "ramcalc-cert 1\nname compose\nparameter n\ninstances 1\nnode A\nnode B\nnode C\n"
            "arrow o B C degree=-\nfiber o 0 all 2\n"
            f"arrow i A B degree=-\n{inner_fibers}"
            "arrow oi A C degree=-\nfiber oi 0 all 4\n"
            "claim profile o given\nclaim profile i given\nclaim compose oi o i\n"
        )
        code, out, err = run(capsys, "verify", str(p), "--json", "--deterministic")
        assert (code, err) == (1, "")
        (verdict,) = [v for v in json.loads(out)["verdicts"] if v["kind"] == "compose"]
        assert (verdict["subject"], verdict["status"], verdict["details"]) == ("oi", "fail", [detail])

    @pytest.mark.parametrize("depth, code", [(64, 0), (65, 2), (400, 2)])
    def test_nested_parentheses_above_64_exit_two(self, capsys, tmp_path, depth, code):
        # each level is a recursion of the expression parser
        text = bundled_text("prop9.chain").replace("start 1:2", f"start {'(' * depth}1{')' * depth}:2")
        p = tmp_path / "nested.chain"
        p.write_text(text)
        got, out, err = run(capsys, "verify", str(p))
        assert got == code
        if code == 2:
            assert out == "" and err == "error: parentheses nested deeper than 64\n"

    def test_tampered_chain_exits_one_with_witness(self, capsys, tmp_path):
        text = bundled_text("prop9.chain").replace("1:32", "1:31")
        p = tmp_path / "bad.chain"
        p.write_text(text)
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 1
        assert "claimed 31" in out and "actual 32" in out

    INLINE_CHAIN = (
        "ramcalc-chain 1\nname inline\nfield rational\nstart 1:2 1/2:2\n"
        "step f map\nnum 1 0 1\nden 0 1\nram 1:2 -1:3\nout 2 -2 inf 5/2\n"
        "step g map\nnum 0 0 1\nden 1\nram 0:2 inf:2\nout 4 7\n"
    )

    def test_failure_details_name_points_in_manifest_syntax(self, capsys, tmp_path):
        p = tmp_path / "inline.chain"
        p.write_text(self.INLINE_CHAIN)
        code, out, _ = run(capsys, "verify", str(p), "--json", "--deterministic")
        assert code == 1
        steps = json.loads(out)["steps"]
        assert steps[0]["details"] == ["index at -1: claimed 3, actual 2"]
        assert steps[1]["details"] == [
            "claimed output set disagrees with recomputation: "
            "missing=['4', '7'] extra=['0', '1', '1/4', 'inf']"
        ]

    @staticmethod
    def _mutants(name):
        """(label, text) of chain variants with one wrong claim each: the
        last claimed ramification index raised by one, and, on each out
        line in turn, one point replaced by a rational no step yields."""
        lines = bundled_text(name).splitlines()
        rows = [i for i, ln in enumerate(lines) if ln.startswith(("ram ", "out "))]
        ram = [i for i in rows if lines[i].startswith("ram ")][-1]
        point, _, index = lines[ram].rpartition(":")
        yield "ram", lines[:ram] + [f"{point}:{int(index) + 1}"] + lines[ram + 1:]
        for i in rows:
            if lines[i].startswith("out "):
                entries = lines[i].split()
                entries[1 + i % (len(entries) - 1)] = f"{i + 1}/101"
                yield f"out{i}", lines[:i] + [" ".join(entries)] + lines[i + 1:]

    @pytest.mark.parametrize("name", ["prop9.chain", "prop12.chain", "prop14.chain"])
    def test_mutant_reports_hold_no_python_repr(self, capsys, tmp_path, name):
        for label, lines in self._mutants(name):
            p = tmp_path / f"{label}-{name}"
            p.write_text("\n".join(lines) + "\n")
            for flags in ((), ("--json", "--deterministic")):
                code, out, err = run(capsys, "verify", str(p), *flags)
                assert (code, err) == (1, ""), label
                assert "fail" in out, label
                for token in ("Fraction(", "mpq(", "'nfe'", "('q'", "('inf'"):
                    assert token not in out, (label, token)

    def test_leading_blank_lines_before_header(self, capsys, tmp_path):
        p = tmp_path / "blank.cert"
        p.write_text("\n  \n" + bundled_text("prop7a.cert"))
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 0
        assert "result: PASS" in out

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("field rational\nbound-primes 1", "1 in the prime list is not a prime"),
            ("field rational\nbound-primes 0", "0 in the prime list is not a prime"),
            ("field rational\nbound-primes -2", "-2 in the prime list is not a prime"),
            ("field rational\nbound-primes 2 4", "4 in the prime list is not a prime"),
            ("field rational\nbound 0", "bound must be at least 1: 0"),
            ("field cyclotomic 65", "cyclotomic index above 64"),
            ("field rational\nstep b belyi\nsupport " + " ".join(map(str, range(33))),
             "support of size 33 is above 32"),
        ],
    )
    def test_chain_bounds_exit_two(self, capsys, tmp_path, lines, message):
        p = tmp_path / "caps.chain"
        p.write_text(f"ramcalc-chain 1\nname caps\n{lines}\nstart 0:2\n")
        code, out, err = run(capsys, "verify", str(p))
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        p = tmp_path / "junk.chain"
        p.write_text("ramcalc-chain 1\nstep f2 sideways\n")
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "field, point",
        [("rational", "1/0"), ("rational", "2/(1-1)"), ("cyclotomic 5", "1/(t-t)")],
    )
    def test_division_by_zero_exits_two(self, capsys, tmp_path, field, point):
        p = tmp_path / "zero.chain"
        p.write_text(
            f"ramcalc-chain 1\nname zero\nfield {field}\nstart 1:2\n"
            f"step f map\nnum 0 1\nden 1\nout {point}\n"
        )
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "error: division by zero" in err

    def test_start_index_below_one_exits_two(self, capsys, tmp_path):
        text = bundled_text("prop12.chain")
        assert "start 1:2 " in text
        p = tmp_path / "start.chain"
        p.write_text(text.replace("start 1:2 ", "start 1:0 "))
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "start index" in err

    def test_claim_naming_undeclared_arrow_exits_two(self, capsys, tmp_path):
        lines = bundled_text("prop7a.cert").splitlines(keepends=True)
        kept = [ln for ln in lines if not ln.startswith(("arrow F2 ", "fiber F2 "))]
        assert len(kept) == len(lines) - 4
        p = tmp_path / "undeclared.cert"
        p.write_text("".join(kept))
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "undeclared arrow 'F2'" in err

    @pytest.mark.parametrize(
        "line, cut",
        [
            ("claim unramified f9 f1 F1", "claim unramified f9"),
            ("claim profile f1 given", "claim profile f1"),
            ("claim compose f6f10 f6 f10", "claim compose f6f10 f6"),
            ("claim conclude X8n X16n", "claim conclude X8n"),
        ],
    )
    def test_claim_with_too_few_fields_exits_two(self, capsys, tmp_path, line, cut):
        text = bundled_text("prop7a.cert")
        assert line + "\n" in text
        p = tmp_path / "short.cert"
        p.write_text(text.replace(line + "\n", cut + "\n"))
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "too few fields" in err

    @pytest.mark.parametrize("name", ["prop10.cert", "prop13.cert"])
    def test_reversed_conclusion_exits_one(self, capsys, tmp_path, name):
        text = bundled_text(name)
        (source, target), = re.findall(r"claim conclude (\S+) (\S+)", text)
        p = tmp_path / name
        p.write_text(text.replace(f"claim conclude {source} {target}", f"claim conclude {target} {source}"))
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 1
        assert f"  conclude {target} => {source}: fail\n    {source} is not reached from {target}" in out

    def test_conclusion_naming_undeclared_node_exits_two(self, capsys, tmp_path):
        text = bundled_text("prop10.cert")
        p = tmp_path / "nowhere.cert"
        p.write_text(text.replace("claim conclude Xbig5 X5n", "claim conclude Cp Nowhere"))
        code, out, err = run(capsys, "verify", str(p))
        assert code == 2 and out == ""
        assert "conclusion Cp => Nowhere references unknown nodes" in err

    def test_verify_never_imports_sympy(self):
        # the verify reports go to stdout, the summary is its last line
        script = """
data = Path(sys.argv[1]) / "ramcalc" / "data"
paths = sorted(p for p in data.iterdir() if p.suffix in (".chain", ".cert"))
codes = [cli.main(["verify", str(p)]) for p in paths]
print(len(paths), codes.count(0), "sympy" in sys.modules)
"""
        assert fresh_interpreter(script) == "10 10 False"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/path.chain")
        assert code == 2

    def test_json_deterministic_byte_stable(self, capsys, chain_file):
        code1, out1, _ = run(capsys, "verify", chain_file, "--json", "--deterministic")
        code2, out2, _ = run(capsys, "verify", chain_file, "--json", "--deterministic")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["passed"] is True

    # (artifact, exit code, sha256 of the human report, sha256 of the
    # --json --deterministic report), recorded at commit 946b6e7
    PINNED_REPORTS = [
        ("prop9.chain", 0,
         "6362b2d92991985c592cf2eb915203bff426bc8117aab234a47fe5aee817000d",
         "46936bcc17eb7f1d1ab9b52e45f45d7f5b0137b05f2af111728879baf83db885"),
        ("prop12.chain", 0,
         "cef32c4072b23185ac34f71770fe39b6b055a9233d84d967133a994e9ee5bedb",
         "87906354c9ecfb23ea0c727fe8344bcb9d19b783ded6160acc3da8634eaa3faf"),
        ("prop14.chain", 0,
         "521359047f9c5645fba193b269e55d97c41ac03da2df0189eeb4ef1e3757c8ae",
         "f5c62554273dcc6fbb4aa4ed0f63dad2fc764beed2cf345c3fb1fa4e9b5d98b6"),
        ("prop6.cert", 0,
         "d78bcd77bd22ae86fedc80cfc8bae2040c8c940d709bfab510ac976a26f7900c",
         "5665fdf7b390190e6754781a39c8b8a10854ebdacd4aedb0776a932c4c77ae62"),
        ("prop7a.cert", 0,
         "ce076a55a2efeb4172a7dbfa93ea0d306a2c6cea290d119b158d21f6937bfbe1",
         "444ac397eb0a73435dbd52b6a0615ee8c4a0cb5c22adf305307858215e40265e"),
        ("prop7b.cert", 0,
         "de0ff7a308e8efc89282663601bd333e94ea8cb7f32b44681c6d6fec856eb106",
         "3ae39a0abc5144f54f59c7b585e5e03fe2135fb27c7d952bca8d26f72ebaebcd"),
        ("prop10.cert", 0,
         "9f4a54b349f045cbf713e20835a42632f96d0fdc653ff3803fbc2f2342f61d41",
         "f8c82ec73e750c2ad969f7981cdd349cd077ffad9ba0c700534a41bae3c74562"),
        ("prop13.cert", 0,
         "c1619ec2eb21c57a19c0534401d588193d7c9e7309c4418a959ea3478c745691",
         "56ff5014a62965d21e40ac93b087818c64ed0b0b24b3993b26bdf9475d001bea"),
        ("thm30.cert", 0,
         "78e6eb1135c7dd30834d9a67e48e3c29a8c7a7b36246afd2d648c32d02208a24",
         "db8c930de6e76069cc12d6df311899dfe5fb9e484c3a56519102d2c0761cb53e"),
        ("thm32.cert", 0,
         "6418ec561def31b7628d21255dce4bcdb6601bb2d13e557decb211f74032d2bd",
         "99c414773384b4d8946a10be906eac84fa55f0cee5a7231943d468b3f1f5753d"),
    ]

    @pytest.mark.parametrize("name, code, human, det", PINNED_REPORTS,
                             ids=[row[0] for row in PINNED_REPORTS])
    def test_reports_match_pinned_bytes(self, capsys, tmp_path, name, code, human, det):
        p = tmp_path / name
        p.write_text(bundled_text(name))
        for flags, digest in (((), human), (("--json", "--deterministic"), det)):
            got, out, err = run(capsys, "verify", str(p), *flags)
            assert (got, err) == (code, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, flags

    def test_irrational_map_coefficient_exits_two(self, capsys, tmp_path):
        text = bundled_text("prop12.chain")
        assert "num 1 0 1\n" in text
        p = tmp_path / "irrational.chain"
        p.write_text(text.replace("num 1 0 1\n", "num t 1\n"))
        code, out, err = run(capsys, "verify", str(p))
        assert code == 2
        assert out == "" and err == "error: map coefficient 't' is not rational: unexpected token 't'\n"


class TestMutantReports:
    """Failure reports of seeded chain mutants, pinned byte for byte: the
    details name points, rational and in t, the way `str` prints them."""

    # (chain, mutant, exit code, sha256 of the human report, sha256 of
    # the --json --deterministic report), recorded at commit 105054f
    PINNED = [
        ("prop9.chain", "ram-0", 1,
         "6c998d5a59f169441345341097f55f4d6e8326f781a5d01f7d46aef1dfd1b575",
         "5a7579482c6cb6d671e75566ecf85ed8af04bffe0f1c858792cfb48f0216dd43"),
        ("prop9.chain", "out-0", 1,
         "5a9191db4161780637d276152a221fa2c31295cc978682361cf1413c16d2c2a3",
         "987b1af7b371c0340a45c0f41f3291061704d62007bcd48b64253662bdc417cd"),
        ("prop9.chain", "ram-1", 1,
         "25bdec04d08aca68dcabc9aad52c193313882f2a6f3222814d02abff4d621d5f",
         "544a9d69bbedb7f742a791fa8bee15cd192a2bc32eacef97298d1e435d430b85"),
        ("prop9.chain", "out-1", 1,
         "0b921d7c8759fade46bbf8011bd489ae19ae734bc51b89889aceb15cc15b9f82",
         "98510340c15ddade1f00d26e018c60aa414f7411287f4bf08a731300ad45cc99"),
        ("prop9.chain", "ram-2", 1,
         "1314d3f4fc57f42f2c59a01a7b3a6e87967b4dcf0850889522a429569acf51ae",
         "a1b45a2226cdb7a03aa4c97a5081d9b118d0382433a8bbb6b04a58e916995a28"),
        ("prop9.chain", "out-2", 1,
         "00c2577656821ba08dd996f9bc32660877ad32f4cb77b1b811847438218c7310",
         "aaa3f2f89bd0791e04d420a937a7636fcfab5597d874e011365693b60dbcea43"),
        ("prop9.chain", "ram-3", 1,
         "04f6dcc203f054206b4a9180eedfe4e457eeabd2359b949a8cb9ede1340a87fa",
         "e008004b27b1a013eacc870ad925f90f72afbd739e92abe66b1b74247353cd25"),
        ("prop9.chain", "out-3", 1,
         "6e1d174ebf51040bcf2d664a69e0f66d5e3a97e268be37d13e6f2b257547833d",
         "94d28ff26d28e2b9376d38db0c30a108ebcf50168dd777ef78bbcdc26bae93db"),
        ("prop9.chain", "out-irrational", 1,
         "1781bee34d9f225f22221c1423402d6a62c6df574b1208aafd2bf79bac05c528",
         "8bdbdb62b54cf9fabdaf89053ec8e4c8181cf1ae05c71e9b5aef508aa7dc8886"),
        ("prop9.chain", "ram-irrational", 1,
         "48ebec405f6e7617cb70abd39aa53ad003ab5f5fc11fc64c429064efc0ff7aa1",
         "516d69549a6fc59629ba2766535f06b51743958eac740d3134f97f0ae0e14a2f"),
        ("prop12.chain", "ram-0", 1,
         "f1641abc153eba12919cace54b6a54dff807612608d00946301e31f7d3288728",
         "0a453126ecf1af4fe21200d3d975c3db7950960fde96a733d281bd93a7bbe788"),
        ("prop12.chain", "out-0", 1,
         "2e1245a56d8b0d11c926d7f8f7ca10a444770b20931a23382d339cee42b2f908",
         "17d9f2eaae9403b47c6c68acf3c74e502142de8a4aab6aacb8bcee90bd9aecae"),
        ("prop12.chain", "ram-1", 1,
         "b7977f73911349dd12f116538361f417565baf757299b816ec3a400f3e5f3c51",
         "8b6961d54bf3ed473eebc8a2271e3f818b6d6c3d9fc6e5ce1886154b8af28349"),
        ("prop12.chain", "out-1", 1,
         "4719ca501e2d062de814e591905f5ec78648af60713ea07097e3c457852544c4",
         "36715eb7634df9ef88c3ee5cc70791c7ce9908ab23cf9cd54574d9337e66de3e"),
        ("prop12.chain", "ram-2", 1,
         "5c4ba7d68dec6602df13f0f51bbb6d99d4862f0672dfe1569958ef9b72ccfaeb",
         "4716faf74b0125349ad930c105cc5347cb300adc7e8ab6484fa80c3cfcea8cdb"),
        ("prop12.chain", "out-2", 1,
         "b21bbda6c7ca8689f4c179f9d8cc4425f9cedbe63a8f08c7dd63ea8c49a8adb9",
         "0c9769f66009f57a80a8b2727c2b3c830cbe3bedc2b5ec11b6b653bd198f48c1"),
        ("prop12.chain", "ram-3", 1,
         "4c79e2a1c80f378804eca2cd983f9c9e0c246086432b56a9b11f17a7f69071f4",
         "fea3df12b6962b189aabe3704d8077d0d3a816e5622a93ab1fe9591b152b65cd"),
        ("prop12.chain", "out-3", 1,
         "5c3ec6d99359824f3b251bb952b5b2f775825708c6f574b9af0a8d1b17e5587b",
         "8e74a11f58a66d245b67f7a03e2c7eaeda0aece144fbc2aa5c12396111c788b4"),
        ("prop12.chain", "out-irrational", 1,
         "50d4fd4de58e776f60feebc28c90ba4c31ed543620d92925ff34bd4b12a94d49",
         "caa27fa122733c7328b6d89573a0511629cfa2bc238b47028a8c831f55da208d"),
        ("prop12.chain", "ram-irrational", 1,
         "3dde15bee12981b9bd332222cefd30cc6fc163b01e04f2a7dccbdf29992ab838",
         "bd0739ee3fc330e80bdc19d2a127b235223ed87d0a74337f27adf96921e45908"),
        ("prop14.chain", "ram-0", 1,
         "54d312ad796c25ba6c1d9e7716d9d4905c9a288e913cdfea7eb67532b12406a2",
         "3ec283b12ccfbd91f7ea6ec620f0a0c40f1a6ad306efdc4b539ebe46dbfda24b"),
        ("prop14.chain", "out-0", 1,
         "a7596c940dd7e358d7fb0c0e72c646634a0c88aaff4f628e51050c1384abc417",
         "ee4c7d653745fefc1c80bc37ee51026f62a2028f96e747c0e04adcc9cc49c056"),
        ("prop14.chain", "ram-1", 1,
         "174e0d5919a17af22bf8cee3b1233e5c1666e0da9d3f9c1bf8d4c3552e5fc614",
         "a53037bbdb4de40d896b62921bd329dea4093dd1390084cb1acbf78341c5a418"),
        ("prop14.chain", "out-1", 1,
         "ad10709579b8965e75ac71fc212451f339d4b92101c2e58173060c0dd77b4b4f",
         "48e4ea6e046fe1cd77618ff96ca31a9271450b152efbeb0d7dd5f093c2d73653"),
        ("prop14.chain", "ram-2", 1,
         "54d312ad796c25ba6c1d9e7716d9d4905c9a288e913cdfea7eb67532b12406a2",
         "3ec283b12ccfbd91f7ea6ec620f0a0c40f1a6ad306efdc4b539ebe46dbfda24b"),
        ("prop14.chain", "out-2", 1,
         "d54300e8d65f13135740e69e1501806500732db425b2d7cb7bc5e21e1aa43cd1",
         "008f0306f5dcdd2a78c5cea03442fc3ea6b350ef5be80da7748dc134decb7941"),
        ("prop14.chain", "ram-3", 1,
         "295e3f33d6c2825f8ad7ee5decbf3b4bf4a221bc36f7cb403b3bace2b02acd0b",
         "a22b788a9f87be4a5457f9390cbd5587035ffa473b66b919fc02d7b5af7d830f"),
        ("prop14.chain", "out-3", 1,
         "c21fbc9916e9f43b9017bafda98973d1225b80af15fdb2a73611436b111a482c",
         "8516ef3472a273a7ace9a9d5621fa2969d3204a55710df027c3702e3ff5439dd"),
        ("prop14.chain", "out-irrational", 1,
         "e2f98695c454473eeac805a4e92f3549ea53d68b1fe3c54c46456058e344b704",
         "c2844008a908afcdd9b4f58374c6912e6b26090d1f1a0cf7b5ba7c02de7cafed"),
        ("prop14.chain", "ram-irrational", 1,
         "135d8f493ba61f4a0f83c30995dd25c5c85bbc94c1a9f43049fbbfcead0a8968",
         "67cf7676cc7e7e473197e084a7302f8fbc1ec29666e98ac192b9a07e21e0d2bd"),
    ]

    @pytest.mark.parametrize("name, label, code, human, det", PINNED,
                             ids=[f"{row[0]}-{row[1]}" for row in PINNED])
    def test_reports_match_pinned_bytes(self, capsys, tmp_path, name, label, code, human, det):
        p = tmp_path / f"{label}-{name}"
        p.write_text(chain_mutants(name)[label])
        for flags, digest in (((), human), (("--json", "--deterministic"), det)):
            got, out, err = run(capsys, "verify", str(p), *flags)
            assert (got, err) == (code, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, flags

    def test_every_mutant_is_pinned(self):
        pinned = {(row[0], row[1]) for row in self.PINNED}
        assert pinned == {(name, label) for name in ("prop9.chain", "prop12.chain", "prop14.chain")
                          for label in chain_mutants(name)}


class TestErrorLines:
    LONG = 100_000

    @pytest.mark.parametrize("argv", [
        ["contract", "$" * LONG],
        ["contract", "z" * LONG],
        ["contract", "z^2-2" + "$" * LONG],
        ["sunit", "smooth", "--primes", "x" * LONG, "--height", "10"],
        ["sunit", "smooth", "--primes", "9" * LONG, "--height", "10"],
        ["belyi", "exponents", "x" * LONG],
        ["relation", "query", "C(" + "1" * LONG + ")", "C(4)"],
        ["relation", "query", "Q" * LONG + "$", "C(4)"],
    ], ids=["contract-character", "contract-token", "contract-tail", "sunit-list",
            "sunit-prime", "belyi-list", "relation-level", "relation-pattern"])
    def test_long_argument_gives_short_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_long_prime_entry_refused_before_conversion(self, capsys):
        code, out, err = run(capsys, "sunit", "smooth", "--primes", "2," + "9" * self.LONG,
                             "--height", "10")
        assert (code, out) == (2, "")
        assert err == f"error: prime list entry '{'9' * 60}...' is longer than 13 characters\n"

    CHAIN = "ramcalc-chain 1\nname c\nfield rational\nstart 0:1\n"
    CERT = "ramcalc-cert 1\nname c\nnode A\n"

    @pytest.mark.parametrize("text", [
        CHAIN + "step " + "s" * LONG + " map\n",
        CHAIN + "step " + "s" * LONG + " map extra\n",
        CHAIN + "k" * LONG + " 1\n",
        CHAIN + "step " + "s" * LONG + " map\nden 1\n",
        CERT + "arrow " + "a" * LONG + " A A\n",
        CERT + "instances 1\narrow " + "a" * LONG + " A B degree=1\nclaim profile " + "a" * LONG
        + " given\n",
        CERT + "fiber " + "a" * LONG + " 0 all 1\n",
        CERT + "claim compose " + "a" * LONG + " f g\n",
        CERT + "k" * LONG + " 1\n",
        CHAIN + "step b belyi\nsupport 0 1 " + "x" * LONG + "\n",
        CHAIN + "bound " + "x" * LONG + "\n",
        CHAIN + "bound-primes 2 " + "x" * LONG + "\n",
        CHAIN.replace("start 0:1", "start 0:" + "x" * LONG),
        CHAIN + "step s map\nnum 0 1\nden 1\nram 0:" + "x" * LONG + "\n",
        CHAIN + "step b belyi\nsupport 0 1\nexponents 1 " + "x" * LONG + "\n",
        CHAIN.replace("field rational", "field cyclotomic " + "x" * LONG),
        CERT + "instances 1 " + "x" * LONG + "\n",
        "ramcalc-belyi 1\nsupport 0 1\nexponents 1 " + "x" * LONG + "\n",
    ], ids=["step-name", "step-line", "chain-key", "den-before-num", "arrow-line", "arrow-nodes",
            "fiber-arrow", "claim-arrow", "cert-key", "chain-support", "bound", "bound-primes",
            "start-index", "ram-index", "step-exponents", "field-index", "cert-instances",
            "belyi-exponents"])
    def test_long_manifest_line_gives_short_error_line(self, capsys, tmp_path, text):
        p = tmp_path / "long.manifest"
        p.write_text(text)
        command = ["belyi", "verify"] if text.startswith(cli.BELYI_HEADER) else ["verify"]
        code, out, err = run(capsys, *command, str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_short_manifest_line_quoted_whole(self, capsys, tmp_path):
        p = tmp_path / "short.chain"
        p.write_text(self.CHAIN + "step s map extra\n")
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert err == "error: bad step line 'step s map extra'\n"

    def test_short_argument_quoted_whole(self, capsys):
        code, _, err = run(capsys, "contract", "z^2-2$")
        assert code == 2
        assert err == ("error: cannot parse polynomial 'z^2-2$': "
                       "bad character in expression 'z^2-2$' at 5\n")

    # a number token of MAX_DIGITS digits in a run is read; one digit
    # more is refused before int() or Fraction() sees it
    CAP = "9" * 4300

    @pytest.mark.parametrize("digits, code", [(CAP, 1), (CAP + "9", 2)], ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize("form", ["{}", "1/{}", "t+{}", "{}.5"])
    def test_chain_point_digit_cap(self, capsys, tmp_path, digits, code, form):
        p = tmp_path / "digits.chain"
        p.write_text("ramcalc-chain 1\nname d\nfield cyclotomic 5\nstart 1:2\n"
                     f"step f map\nnum 0 1\nden 1\nout {form.format(digits)}\n")
        got, out, err = run(capsys, "verify", str(p))
        assert got == code
        if code == 2:
            # the error line quotes the number token, not the expression
            assert out == "" and err == f"error: number {excerpt(digits)!r} has more than 4300 digits\n"
        else:
            assert err == "" and "fail (erratum)" in out

    @pytest.mark.parametrize("digits, code", [(CAP, 0), (CAP + "9", 2)], ids=["at-cap", "over-cap"])
    def test_contract_coefficient_digit_cap(self, capsys, digits, code):
        got, out, err = run(capsys, "contract", f"z-{digits}")
        assert got == code
        if code == 2:
            assert out == "" and err == f"error: number {excerpt(digits)!r} has more than 4300 digits\n"

    @pytest.mark.parametrize("digits, code", [(CAP, 0), (CAP + "9", 2)], ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize("form", ["{}", "1/{}"])
    def test_belyi_entry_digit_cap(self, capsys, digits, code, form):
        entry = form.format(digits)
        got, out, err = run(capsys, "belyi", "exponents", f"0,1,{entry}")
        assert got == code
        if code == 2:
            assert out == "" and err == f"error: number {excerpt(entry)!r} has more than 4300 digits\n"
        else:
            assert "result: PASS" in out

    @pytest.mark.parametrize("entry", ["9" * 300_000, "1/" + "7" * 300_000])
    def test_long_belyi_entry_refused_at_once(self, capsys, entry):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "belyi", "exponents", f"0,1,{entry}")
        elapsed = time.perf_counter() - t0
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert elapsed < 0.1

    @pytest.mark.parametrize("text", [
        "ramcalc-chain 1\nname d\nfield rational\nbound " + CAP + "9\nstart 0:1\n",
        "ramcalc-belyi 1\nsupport 0 1 2\nexponents 1 " + CAP + "9 1\n",
    ], ids=["chain-bound", "belyi-exponent"])
    def test_integer_field_digit_cap(self, capsys, tmp_path, text):
        p = tmp_path / "digits.manifest"
        p.write_text(text)
        command = ["belyi", "verify"] if text.startswith(cli.BELYI_HEADER) else ["verify"]
        code, out, err = run(capsys, *command, str(p))
        assert (code, out) == (2, "")
        assert err == f"error: number {excerpt(self.CAP + '9')!r} has more than 4300 digits\n"


class TestParser:
    def test_built_once_per_process(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert run(capsys, "genus", "5")[:2] == (0, "2\n")
        assert run(capsys, "genus", "2")[0] == 2
        assert run(capsys, "genus", "7", "--json")[:2] == (0, '{"genus":3,"n":7}\n')


class TestVersion:
    def test_version_names_backend(self, capsys):
        from ramcalc import __version__
        from ramcalc.exact import BACKEND

        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"ramcalc {__version__} (rationals: {BACKEND})"


class TestBelyi:
    def test_exponents(self, capsys):
        code, out, _ = run(capsys, "belyi", "exponents", "0,1,5,6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exponents"] == [2, -3, 3, -2]
        assert payload["passed"] is True

    def test_exponents_with_factorization(self, capsys):
        code, out, _ = run(capsys, "belyi", "exponents", "0,1,5,6",
                           "--primes", "2,3", "--json")
        payload = json.loads(out)
        assert all(item["factors"] is not None for item in payload["factorizations"])

    @pytest.mark.parametrize("sub", ["exponents", "verify", "search"])
    def test_non_prime_exits_two(self, capsys, tmp_path, sub):
        p = tmp_path / "tuple.belyi"
        p.write_text("ramcalc-belyi 1\nsupport 0 1 5 6\nexponents 2 -3 3 -2\n")
        argv = {"exponents": ["0,1,5,6"], "verify": [str(p)], "search": ["--box", "10"]}[sub]
        code, out, err = run(capsys, "belyi", sub, *argv, "--primes", "2,4")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_verify_file(self, capsys, tmp_path):
        p = tmp_path / "tuple.belyi"
        p.write_text("ramcalc-belyi 1\nsupport 0 1 5 6\nexponents 2 -3 3 -2\n")
        code, out, _ = run(capsys, "belyi", "verify", str(p))
        assert code == 0
        assert "PASS" in out

    def test_empty_tuple_exits_one(self, capsys, tmp_path):
        p = tmp_path / "tuple.belyi"
        p.write_text("ramcalc-belyi 1\nsupport\nexponents\n")
        code, out, _ = run(capsys, "belyi", "verify", str(p))
        assert code == 1
        assert "dlog constant: None\nresult: FAIL\n" in out
        code, out, _ = run(capsys, "belyi", "verify", str(p), "--json")
        assert (code, json.loads(out)["failure"]) == (1, "dlog numerator vanishes identically")

    def test_malformed_tuple_exits_two(self, capsys, tmp_path):
        p = tmp_path / "tuple.belyi"
        p.write_text("ramcalc-belyi 1\nsupport 0 1 x\n")
        code, _, err = run(capsys, "belyi", "verify", str(p))
        assert code == 2

    def test_search_finds_reference(self, capsys):
        code, out, _ = run(capsys, "belyi", "search", "--k", "4",
                           "--primes", "2,3", "--box", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert ["0", "1", "5", "6"] in [t["support"] for t in payload["tuples"]]

    @staticmethod
    def largest_box_under_cap(k):
        box = k - 1
        while comb(box + 1, k - 1) <= cli.MAX_BELYI_SUPPORTS:
            box += 1
        return box

    @pytest.mark.parametrize("k,box", [
        ("4", "0"), ("4", "-5"), ("7", "100000"),
        ("5", "cap+1"), ("6", "cap+1"), ("7", "cap+1"),
    ])
    def test_search_bounds_exit_two_without_enumerating(self, capsys, monkeypatch, k, box):
        if box == "cap+1":
            box = str(self.largest_box_under_cap(int(k)) + 1)

        def refuse(*args):
            raise AssertionError("the enumeration started")
        monkeypatch.setattr(cli, "search_smooth_tuples", refuse)
        code, out, err = run(capsys, "belyi", "search", "--k", k, "--primes", "2,3", "--box", box)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_search_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "search_smooth_tuples", lambda k, primes, box: [])
        box = self.largest_box_under_cap(5)
        code, out, _ = run(capsys, "belyi", "search", "--k", "5", "--primes", "2", "--box", str(box))
        assert code == 0
        assert out == "count: 0\n"

    def test_search_near_the_cap_within_budget(self, capsys):
        # 80 730 supports, under the cap
        assert comb(27, 5) < cli.MAX_BELYI_SUPPORTS
        t0 = time.monotonic()
        code, out, _ = run(capsys, "belyi", "search", "--k", "6", "--primes", "2,3,5", "--box", "27")
        elapsed = time.monotonic() - t0
        assert code == 0 and out.endswith("count: 127\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3095af92dae8fbb0090c815899d3c38839a8053d0f256188f1be3f3fbdb76c8d")
        assert elapsed < 1.0

    def test_bench_boxes_far_under_the_cap(self):
        assert 10 * max(comb(30, 3), comb(20, 4)) < cli.MAX_BELYI_SUPPORTS

    def test_huge_box_refused_before_comb(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "belyi", "search", "--k", "7", "--primes", "2,3",
                             "--box", "9" * 100000)
        elapsed = time.monotonic() - t0
        assert (code, out) == (2, "")
        assert err.startswith("error: box 999") and len(err.encode()) < 200
        assert elapsed < 1.0

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_long_box_refused_from_its_text(self, capsys, sign):
        # int() and str() of a 300 000-digit box take over a second
        t0 = time.monotonic()
        code, out, err = run(capsys, "belyi", "search", "--k", "4", "--primes", "2,3",
                             "--box", sign + "9" * 300_000)
        elapsed = time.monotonic() - t0
        assert (code, out) == (2, "")
        assert err.startswith("error: box must be at least 1, got -999" if sign else "error: box 999")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert elapsed < 0.1

    @pytest.mark.parametrize("sub", ["exponents", "verify"])
    def test_support_above_the_cap_exits_two_without_expanding(self, capsys, monkeypatch,
                                                              tmp_path, sub):
        def refuse(*args):
            raise AssertionError("the exponent or numerator work started")
        monkeypatch.setattr(cli, "vandermonde_exponents", refuse)
        monkeypatch.setattr(cli, "verify_belyi", refuse)
        k = belyi.MAX_BELYI_SUPPORT_SIZE + 1
        support = " ".join(str(i * i) for i in range(k))
        p = tmp_path / "tuple.belyi"
        p.write_text(f"ramcalc-belyi 1\nsupport {support}\nexponents {' '.join(['1'] * k)}\n")
        argv = {"exponents": [support], "verify": [str(p)]}[sub]
        code, out, err = run(capsys, "belyi", sub, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: support of size {k} is above {belyi.MAX_BELYI_SUPPORT_SIZE}\n"

    def test_support_at_the_cap_runs(self, capsys):
        support = ",".join(str(i * i) for i in range(belyi.MAX_BELYI_SUPPORT_SIZE))
        code, out, _ = run(capsys, "belyi", "exponents", support, "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_without_traceback(self, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(ramcalc.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "ramcalc.cli", "contract", "z^3-2", "--json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert "Traceback" not in err.decode()
        assert "BrokenPipeError" not in err.decode()
        assert proc.returncode == 1


class TestContract:
    def test_cubic(self, capsys):
        code, out, _ = run(capsys, "contract", "z^3-2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        bound = payload["composite_index_bound"]
        assert bound & (bound - 1) == 0

    def test_linear_zero_steps(self, capsys):
        code, out, _ = run(capsys, "contract", "z-5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == []

    def test_unparseable_exits_two(self, capsys):
        for bad in ("z^^3 ++ oops(", "z^2-sqrt(2)", "x^2-2"):
            code, _, err = run(capsys, "contract", bad)
            assert code == 2, bad
            assert "error:" in err

    def test_import_probe_exits_two_and_runs_nothing(self, capsys, tmp_path):
        marker = tmp_path / "x"
        code, out, err = run(capsys, "contract",
                             f"__import__('pathlib').Path({str(marker)!r}).touch() or z^2-2")
        assert code == 2
        assert out == "" and err.startswith("error: cannot parse polynomial")
        assert not marker.exists()

    @pytest.mark.parametrize("poly", ["z^100000-2", "z^65-2", "(z^8)^9", "z^40*z^25-1",
                                      "(z+1)^64*z-3"])
    def test_exponent_or_degree_above_64_exits_two(self, capsys, poly):
        code, out, err = run(capsys, "contract", poly)
        assert code == 2
        assert out == "" and err.startswith("error:") and "above 64" in err

    # (argv, exit code, sha256 of the human output, sha256 of the
    # --json --deterministic output), recorded at commit eef5d87
    PINNED_OUTPUTS = [
        (["z^2-2"], 0,
         "ac302638530fd94ec5dbb611bc15117b5ef24d489d11e9d507c3a9bd16ec540e",
         "58d3ebdb183f152592af8e4726164740fa40b87b561f9f0897f5170f1009350a"),
        (["z^3-2"], 0,
         "0bc9dbf9a22dc44eb893f5fc4dcaa69b46909ba6e63059a8bfe34c0116f3ce30",
         "a3945f313f5b39930222fb0f8eb030127974c95dc3c0992f6ed6a39f1aa1081d"),
        (["z^4+1"], 0,
         "9762432e7014418bb2cbea438c27ebc747cf3fdfdd51f411dd7926ae852f00e8",
         "2443cebf183a726f4996aecaf7a81aa7a39b346ebac2cde987c0bee06058b74a"),
        (["z^5-3"], 0,
         "9cdcbdb12722298b7e9507619dfb18585a08212a8e280d10022e9847c6959b91",
         "b6ca2a23043f31c22f236cc4777538302f18a3e4858f6ebc7a3bb50540f7dbed"),
    ]

    @pytest.mark.parametrize("argv, code, human, det", PINNED_OUTPUTS,
                             ids=[row[0][0] for row in PINNED_OUTPUTS])
    def test_outputs_match_pinned_bytes(self, capsys, argv, code, human, det):
        for flags, digest in (((), human), (("--json", "--deterministic"), det)):
            got, out, err = run(capsys, "contract", *argv, *flags)
            assert (got, err) == (code, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, flags

    @pytest.mark.parametrize("depth, code", [(64, 0), (65, 2), (300, 2)])
    def test_nested_parentheses_above_64_exit_two(self, capsys, depth, code):
        got, out, err = run(capsys, "contract", f"{'(' * depth}z^2-2{')' * depth}")
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("error:") and "nested deeper than 64" in err

    @pytest.mark.parametrize("polys", ["z-5", "z^3-2,z^2-3", "z^4-1"])
    def test_contract_never_imports_sympy(self, polys):
        argv = ["contract", *polys.split(",")]
        assert fresh_interpreter(f'print(cli.main({argv!r}), "sympy" in sys.modules)') == "0 False"

    def test_huge_final_points_print(self, capsys):
        # the final points of four cube roots run past Python's default
        # limit of 4300 digits for printing an integer
        code, out, _ = run(capsys, "contract", "z^3-2", "z^3-3", "z^3-5", "z^3-7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert max(len(x) for x in payload["final_points"]) > 4300
        for x in payload["final_points"]:
            Fraction(x)

    def test_height_cap_exits_one(self, capsys):
        code, out, _ = run(capsys, "contract", "z^5-3", "--height-cap", "8", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert re.fullmatch(r"coefficient size \d+ bits exceeds cap 8", payload["error"])

    def test_step_limit_message(self, capsys, monkeypatch):
        # z^5-3 needs four steps
        monkeypatch.setattr(contract, "MAX_STEPS", 2)
        code, out, _ = run(capsys, "contract", "z^5-3")
        assert code == 1
        assert out == "points still not rational after 2 steps\n"

    def test_height_cap_holds_on_images(self, capsys):
        # every F of Phi7 fits under 2^16 (the largest, uncapped, has
        # 54284 bits), so a cap checked on F alone lets the run finish;
        # the last step builds an image of 79278 bits, and the run stops there
        code, out, _ = run(capsys, "contract", "z^6+z^5+z^4+z^3+z^2+z+1",
                           "--height-cap", "65536", "--json")
        assert code == 1
        payload = json.loads(out)
        bits = int(re.fullmatch(r"coefficient size (\d+) bits exceeds cap 65536",
                                payload["error"]).group(1))
        assert 65536 < bits <= 79278

    def test_fifth_root_decides_under_the_bench_cap(self, capsys):
        code, out, _ = run(capsys, "contract", "z^5-3", "--height-cap", "65536", "--json")
        assert code == 0
        assert max(st["coeff_bits"] for st in json.loads(out)["steps"]) <= 65536

    def test_mixed_degrees_exit_zero(self, capsys):
        code, out, _ = run(capsys, "contract", "z^2-1/3", "z^4+z+1", "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_rejected_recheck_exits_one(self, capsys, monkeypatch):
        # a contraction that lost a final point is refused before any report
        def dropped(S, height_cap=None):
            result = contract.contract_to_rational(S, height_cap)
            return dataclasses.replace(result, final_set=contract.AlgebraicPointSet(
                result.final_set.polys[1:]))
        monkeypatch.setattr(cli, "contract_to_rational", dropped)
        code, out, _ = run(capsys, "contract", "z^3-2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert "final point" in payload["error"]

    def test_height_cap_holds_on_the_recheck(self, capsys, monkeypatch):
        # z^5-3 builds images of up to 1970 bits; with the contraction
        # left uncapped, the recheck before exit 0 still holds to the cap
        monkeypatch.setattr(cli, "contract_to_rational",
                            lambda S, height_cap=None: contract.contract_to_rational(S))
        code, out, _ = run(capsys, "contract", "z^5-3", "--height-cap", "1000", "--json")
        assert code == 1
        payload = json.loads(out)
        assert re.fullmatch(r"coefficient size \d+ bits exceeds cap 1000", payload["error"])

    def test_steps_report_coefficient_bits(self, capsys):
        argv = ["contract", "z^3-2", "z^2-3"]
        code, out, _ = run(capsys, *argv, "--json", "--deterministic")
        assert code == 0
        bits = [st["coeff_bits"] for st in json.loads(out)["steps"]]
        assert len(bits) == 3 and all(b >= 1 for b in bits)
        assert run(capsys, *argv, "--json", "--deterministic")[1] == out
        code, out, _ = run(capsys, *argv)
        step_lines = [ln for ln in out.splitlines() if ln.startswith("step ")]
        assert [ln.rsplit(", ", 1)[1] for ln in step_lines] == [
            f"{b}-bit coefficients" for b in bits
        ]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_height_cap_below_one_exits_two(self, capsys, cap):
        for poly in ("z^2-2", "z"):
            code, out, err = run(capsys, "contract", poly, "--height-cap", cap)
            assert code == 2, poly
            assert out == "" and err == f"error: height cap must be at least 1, got {cap}\n"

    def test_height_cap_of_one_is_accepted(self, capsys):
        assert run(capsys, "contract", "z", "--height-cap", "1")[0] == 0
        code, out, _ = run(capsys, "contract", "z^2-2", "--height-cap", "1")
        assert code == 1
        assert re.fullmatch(r"coefficient size \d+ bits exceeds cap 1\n", out)


class TestRelation:
    def test_query_reference_chain(self, capsys):
        code, out, _ = run(capsys, "relation", "query", "C(6)", "C(48)")
        assert code == 0
        assert "C(8)" in out and "C(48)" in out

    def test_trace_prints_provenance(self, capsys):
        code, out, _ = run(capsys, "relation", "trace", "C(6)", "C(16)")
        assert code == 0
        assert "prop7a.cert" in out
        assert "validated: yes" in out

    def test_unreachable_exits_one(self, capsys):
        code, out, _ = run(capsys, "relation", "query", "C(6)", "C(7)",
                           "--bound", "4")
        assert code == 1

    def test_classes(self, capsys):
        code, out, _ = run(capsys, "relation", "classes", "C(8)", "C(16)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1

    def test_classes_report_search_counters(self, capsys):
        argv = ["relation", "classes", "C(8)", "C(16)", "C(7)", "--bound", "6"]
        code, out, _ = run(capsys, *argv, "--json", "--deterministic")
        assert code == 0
        search = json.loads(out)["search"]
        assert set(search) == {"nodes_reached", "nodes_expanded", "edges"}
        assert 0 < search["nodes_expanded"] <= search["nodes_reached"] < search["edges"]
        assert run(capsys, *argv, "--json", "--deterministic")[1] == out
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert lines[-2] == "count: 2"
        assert lines[-1] == (f"searched: {search['nodes_reached']} nodes, "
                             f"{search['edges']} edges")

    @pytest.mark.parametrize("argv", [["classes", "C(6)", "C(8)"], ["query", "C(6)", "C(8)"],
                                      ["trace", "C(6)", "C(8)"], ["query", "C(6)", "C(6)"]])
    def test_bound_below_one_exits_two(self, capsys, argv):
        for bound in ("0", "-1"):
            code, out, err = run(capsys, "relation", *argv, "--bound", bound)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["query", "C(5)"], ["trace", "C(5)"], ["classes", "C(6)"]])
    def test_level_above_10_18_exits_two(self, capsys, argv):
        level = "C(30000000000000000017000000000000000002067)"
        code, out, err = run(capsys, "relation", argv[0], level, *argv[1:], "--bound", "2")
        assert code == 2
        assert out == "" and err.startswith("error:") and "above" in err

    def test_level_at_10_18_runs(self, capsys):
        code, _, err = run(capsys, "relation", "query", f"C({10 ** 18})", "C(5)", "--bound", "2")
        assert code in (0, 1) and err == ""

    # (argv, exit code, sha256 of the human output, sha256 of the
    # --json --deterministic output), recorded at commit 709d156
    SMOOTH_LEVELS = [f"C({n})" for n in (5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25,
                                         27, 30, 32, 36, 40, 45, 48, 50, 54, 60)]
    PINNED_OUTPUTS = [
        (["classes", *SMOOTH_LEVELS], 0,
         "2ccee21cebcb730c28218f7e778f9947385ea9d62464fade99531656d6f19449",
         "dcee5b26a162dea2996045d2e5aee0ed94d93d66340e4a76460f40d981c29b71"),
        (["query", "C(6)", "C(48)"], 0,
         "9ab01021492494941f72156500b3d10505053e073dabf46f8fce07a0e531fd1b",
         "9bb174518029377561215db8d6dc941fd62551092703744011f6d48e3e4e205e"),
        (["query", "C(6)", "C(21)"], 1,
         "2d068418a646a406b4cd8eb004028213fa78a2f5d3dcb43bb8190431d9d0c658",
         "4bc39cb6b8985582a0c81635e58dc4f39c66d5c153706f62f0f9b416bfa3f990"),
        (["trace", "C(5)", "C(25)"], 0,
         "fd42012493d4cf04041d3d0d59c8c6e76893daaa770362815edd0aa151788a81",
         "7e9d1d357f2dd3de8979cfb7ba0d138eb35bca150d01324f29f1dbf197003ac5"),
    ]

    @pytest.mark.parametrize("argv, code, human, det", PINNED_OUTPUTS,
                             ids=["classes-smooth-5-60", "query-6-48", "query-6-21",
                                  "trace-5-25"])
    def test_outputs_match_pinned_bytes(self, capsys, argv, code, human, det):
        for flags, digest in (((), human), (("--json", "--deterministic"), det)):
            got, out, err = run(capsys, "relation", *argv, *flags)
            assert (got, err) == (code, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, flags

    def test_divisor_of_two_primes_above_1000(self, capsys):
        code, out, _ = run(capsys, "relation", "query", "C(1022117)", "C(1009)")
        assert code == 0
        assert "divisor, n=1009" in out

    @pytest.mark.parametrize("src, tgt", [("C(0n)", "C(4n)"), ("C(2n)", "C(0)"),
                                          ("C(2n)", "C(0n)")])
    def test_zero_coefficient_store_exits_two(self, capsys, tmp_path, src, tgt):
        content = (f"rule zero kind=axiom source={src} target={tgt} cond=n>=1 "
                   "provenance=test-citation")
        store = tmp_path / "zero.store"
        store.write_text(bundled_text("rules.store")
                         + f"{content} sha256={hashlib.sha256(content.encode()).hexdigest()}\n")
        for argv in (["query", "C(6)", "C(48)"], ["classes", "C(6)", "C(8)"]):
            code, _, err = run(capsys, "relation", *argv, "--store", str(store))
            assert code == 2
            assert err.startswith("error:")

    @pytest.mark.parametrize("src, tgt", [("C(0n)", "C(4n)"), ("C(2n)", "C(0)"),
                                          ("C(2n)", "C(0n)")])
    def test_add_zero_coefficient_exits_two(self, capsys, tmp_path, src, tgt):
        store = tmp_path / "my.store"
        store.write_text(bundled_text("rules.store"))
        code, _, err = run(capsys, "relation", "add", "--store", str(store),
                           "--id", "zero", "--source", src, "--target", tgt,
                           "--kind", "axiom", "--provenance", "test-citation")
        assert code == 2
        assert err.startswith("error:")
        assert store.read_text() == bundled_text("rules.store")

    def test_store_fuzz_never_raises(self, capsys, tmp_path):
        # seeded mutants of the bundled store, most with a recomputed
        # sha256 so that the rule parser and the searches see them
        rng = random.Random(6)
        lines = bundled_text("rules.store").splitlines()
        patterns = ["C(0)", "C(0n)", "C(00n)", "C(n)", "C(kn)", "C(1)", "C(7n)", "C()",
                    "C(n0)", "C(-2n)", "C(99999999999999999999n)", "cls",
                    "hyperbolic-hyperelliptic"]
        # values for id, kind=, source=, target=, cond=, provenance=
        pools = {1: ["", "x", "divisor"], 2: ["axiom", "verified", "bogus", ""],
                 3: patterns, 4: patterns,
                 5: ["n>=0", "n>=", "n>=x", "n>=99", "n>=1", "n<=1"],
                 6: ["", "prop6.cert", "missing.cert"]}
        store = tmp_path / "fuzz.store"
        for _ in range(300):
            i = rng.randrange(1, len(lines))
            content = lines[i].rsplit(" sha256=", 1)[0]
            fields = content.split(" ")
            j = rng.choice([1, 2, 3, 3, 4, 4, 5, 6])
            if rng.random() < 0.6:
                key, eq, _ = fields[j].partition("=")
                fields[j] = key + eq + rng.choice(pools[j]) if eq else rng.choice(pools[j])
            else:
                k = rng.randrange(len(fields[j]) + 1)
                fields[j] = fields[j][:k] + rng.choice("()=nk0123456789 x-") + fields[j][k + 1:]
            content = " ".join(fields)
            digest = (hashlib.sha256(content.encode()).hexdigest() if rng.random() < 0.8
                      else "0" * 64)
            mutant = lines[:i] + [f"{content} sha256={digest}"] + lines[i + 1:]
            store.write_text("\n".join(mutant) + "\n")
            for argv in (["query", "C(6)", "C(48)"], ["classes", "C(6)", "C(8)"]):
                code, _, err = run(capsys, "relation", *argv, "--store", str(store),
                                   "--bound", "3")
                assert code in (0, 1, 2), (mutant[i], code)
                assert code != 2 or err.startswith("error:"), mutant[i]

    def test_add_rejects_unverified(self, capsys, tmp_path):
        store = tmp_path / "my.store"
        store.write_text(bundled_text("rules.store"))
        code, _, err = run(capsys, "relation", "add", "--store", str(store),
                           "--id", "bogus", "--source", "C(2n)", "--target", "C(4n)",
                           "--kind", "verified", "--provenance", "missing.cert")
        assert code == 1

    @pytest.mark.parametrize("provenance, code", [("prop7a.cert", 0), ("rules.store", 1)])
    def test_add_verified_checks_bundled_artifact(self, capsys, tmp_path, provenance, code):
        store = tmp_path / "my.store"
        store.write_text(bundled_text("rules.store"))
        got, _, err = run(capsys, "relation", "add", "--store", str(store),
                          "--id", "checked", "--source", "C(3n)", "--target", "C(9n)",
                          "--kind", "verified", "--provenance", provenance)
        assert got == code
        assert ("rule checked" in store.read_text()) == (code == 0)

    @pytest.mark.parametrize("rule_id, provenance", [("a b", "cited"), ("extra", "two words")])
    def test_add_refuses_what_the_store_cannot_read_back(self, capsys, tmp_path, rule_id,
                                                          provenance):
        store = tmp_path / "my.store"
        store.write_text("ramcalc-rules 1\n")
        code, out, err = run(capsys, "relation", "add", "--store", str(store),
                             "--id", rule_id, "--source", "C(2n)", "--target", "C(4n)",
                             "--kind", "axiom", "--provenance", provenance)
        assert code == 2
        assert out == "" and err.startswith("error:") and "one nonempty token" in err
        assert store.read_bytes() == b"ramcalc-rules 1\n"
        code, _, err = run(capsys, "relation", "query", "--store", str(store), "C(2)", "C(4)")
        assert (code, err) == (1, "")

    def test_add_axiom(self, capsys, tmp_path):
        store = tmp_path / "my.store"
        store.write_text(bundled_text("rules.store"))
        code, out, _ = run(capsys, "relation", "add", "--store", str(store),
                           "--id", "extra", "--source", "C(3n)", "--target", "C(9n)",
                           "--kind", "axiom", "--provenance", "test-citation")
        assert code == 0
        assert "rule extra" in store.read_text()


class TestSunitAndGenus:
    def test_prop24_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "sunit", "prop24", "--primes", "2,3",
                             "--height", "100", "--json", "--deterministic")
        code2, out2, _ = run(capsys, "sunit", "prop24", "--primes", "2,3",
                             "--height", "100", "--json", "--deterministic")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["count"] == len(payload["pairs"]) > 0

    def test_unit_mode(self, capsys):
        code, out, _ = run(capsys, "sunit", "unit", "--primes", "2,3",
                           "--height", "10", "--json")
        payload = json.loads(out)
        assert [1, 8, 9] in payload["solutions"]

    def test_genus(self, capsys):
        code, out, _ = run(capsys, "genus", "6")
        assert code == 0
        assert out.strip() == "2"

    def test_genus_bad_arg(self, capsys):
        code, _, err = run(capsys, "genus", "2")
        assert code == 2

    def test_genus_index_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "genus", "100001")
        assert code == 2
        assert out == "" and err == "error: curve index must be <= 100000\n"

    @pytest.mark.parametrize("primes", ["4,9", "2,4", "1", "0", "-3", "1000000000039"])
    def test_non_prime_exits_two(self, capsys, primes):
        code, out, err = run(capsys, "sunit", "smooth", "--primes", primes, "--height", "40")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_prime_list_accepts_primes(self, capsys):
        code, out, _ = run(capsys, "sunit", "smooth", "--primes", "3,2,999999999989",
                           "--height", "10")
        assert code == 0
        assert out.splitlines()[0] == "1 2 3 4 6 8 9"

    def test_usage_error_exits_two(self, capsys):
        code, _, _ = run(capsys, "sunit", "nonsense", "--primes", "2",
                         "--height", "10")
        assert code == 2

    @pytest.mark.parametrize("mode", ["unit", "prop24", "family"])
    def test_pair_loop_above_its_cap_exits_two(self, capsys, mode):
        # 15 519 values up to 10^8, and 18 513 up to 2*10^8 for family
        code, out, err = run(capsys, "sunit", mode, "--primes", "2,3,5,7,11,13",
                             "--height", str(10 ** 8))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: \d+ smooth values up to \d+, above \d+\n", err)
