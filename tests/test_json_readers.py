"""The JSON readers: one table of malformed values fed to every reader, and
every ``to_jsonable`` read back by its reader.

A reader must refuse each malformed value with a ValueError that names the
field; the CLI turns that into exit 2 with a message and no traceback.
"""

import copy
import json

import pytest

from rankmetric.bounds import CodeParams
from rankmetric.cli import main
from rankmetric.codes import ConstantDimensionCode, ConstantRankCode, GabidulinCode, crc_theorem8, lifted_mrd_cdc
from rankmetric.ff import make_field
from rankmetric.linpoly import LinearizedPoly
from rankmetric.matfq import MatrixFq, Subspace, matrix_from_jsonable, subspace_from_jsonable
from rankmetric.witness import (
    bound1_alt_witness,
    bound1_witness,
    bound3_witness,
    certificate_from_jsonable,
)

F16 = make_field(2, 4)

NON_INTEGERS = [True, 0.5, "1", None]
NON_BOOLEANS = [1, 0, "true", None]


def _certificate_doc():
    return json.loads(bound1_witness(GabidulinCode(F16, n=4, k=2), 2).to_json())


def _bound3_doc():
    return json.loads(bound3_witness(n=6, m=6, tau=2, d=3, q=2, translate=0).to_json())


# reader -> (valid document, read, integer slots, coordinate-list slots, keys that
# may not be missing, boolean slots); a slot is (path into the document, text the
# error must hold)
READERS = {
    "certificate": (
        _certificate_doc,
        certificate_from_jsonable,
        [(("params", "tau"), "'params.tau'"), (("params", "q"), "'params.q'"),
         (("params", "modulus", 1), "'params.modulus'"), (("received_word", 0, 0), "'received_word'"),
         (("codewords", 3, 1, 2), "'codewords'"), (("params", "alphas", 0, 0), "'params.alphas'")],
        [(("received_word", 1), "'received_word'"), (("codewords", 0, 2), "'codewords'"),
         (("params", "alphas", 3), "'params.alphas'")],
        [((), "truncated", "'truncated'"), (("params",), "tau", "'params.tau'"), ((), "codewords", "'codewords'")],
        [(("truncated",), "'truncated'")],
    ),
    "bound3 certificate": (
        _bound3_doc,
        certificate_from_jsonable,
        [(("params", "d"), "'params.d'"), (("params", "n"), "'params.n'")],
        [(("codewords", 0, 5), "'codewords'")],
        [((), "meta", "'meta'"), (("meta",), "translate", "'meta.translate'")],
        [],
    ),
    "constant-dimension code": (
        lambda: lifted_mrd_cdc(4, 2, 4, 2).to_jsonable(),
        ConstantDimensionCode.from_jsonable,
        [(("q",), "'q'"), (("dim",), "'dim'"), (("words", 1, "ambient"), "word 1 ambient dimension"),
         (("words", 2, "basis", 1, 3), "word 2 field 'basis'")],
        [],
        [((), "min_subspace_distance", "'min_subspace_distance'"), (("words", 0), "basis", "'basis'")],
        [],
    ),
    "constant-rank code": (
        lambda: crc_theorem8(6, 6, 2, 3, 2).to_jsonable(),
        ConstantRankCode.from_jsonable,
        [(("n",), "'n'"), (("rank",), "'rank'"), (("m",), "'m'"), (("modulus", 2), "'modulus'"),
         (("words", 5, 0, 1), "'words'")],
        [(("words", 5, 0), "'words'")],
        [((), "rank", "'rank'"), ((), "distance_exact", "'distance_exact'"), ((), "modulus", "'modulus'")],
        [(("distance_exact",), "'distance_exact'")],
    ),
    "linearized polynomial": (
        lambda: F16.word_to_jsonable(LinearizedPoly(F16, (3, 0, 9)).coeffs),
        lambda doc: LinearizedPoly(F16, F16.word_from_jsonable(doc, "linearized polynomial coefficients")),
        [((2, 3), "linearized polynomial")],
        [((1,), "linearized polynomial")],
        [],
        [],
    ),
    "matrix": (
        lambda: MatrixFq(3, ((1, 2, 0), (0, 1, 2))).to_jsonable(),
        lambda doc: matrix_from_jsonable(3, doc),
        [((1, 0), "matrix")],
        [],
        [],
        [],
    ),
    "subspace": (
        lambda: Subspace.from_vectors(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]).to_jsonable(),
        lambda doc: subspace_from_jsonable(2, doc),
        [(("ambient",), "ambient dimension"), (("basis", 1, 2), "'basis'")],
        [],
        [((), "ambient", "ambient dimension"), ((), "basis", "'basis'")],
        [],
    ),
}


def _malformed(reader):
    """(name, document, text the error must hold) for every malformed case of a reader."""
    make, _, ints, coords, keys, bools = READERS[reader]
    slots = [(slot, value) for slot in ints for value in NON_INTEGERS]
    for (path, field), value in slots + [(slot, value) for slot in bools for value in NON_BOOLEANS]:
        doc = make()
        _parent(doc, path)[path[-1]] = value
        yield f"{path}={value!r}", doc, field
    for path, field in coords:
        for delta in (-1, 1):
            doc = make()
            entry = _parent(doc, path)[path[-1]]
            entry[:] = entry[:-1] if delta < 0 else entry + [0]
            yield f"{path} {delta:+d} coordinate", doc, field
    for path, key, field in keys:
        doc = make()
        del _parent(doc, path + (key,))[key]
        yield f"no {key!r} at {path}", doc, field


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


CASES = [(reader, *case) for reader in READERS for case in _malformed(reader)]


@pytest.mark.parametrize("reader, case, doc, field", CASES, ids=[f"{c[0]}: {c[1]}" for c in CASES])
def test_reader_refuses_malformed_value_naming_the_field(reader, case, doc, field):
    with pytest.raises(ValueError) as exc:
        READERS[reader][1](doc)
    assert field in str(exc.value)


def _received_cases():
    word = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 1]]
    for value in NON_INTEGERS:
        doc = copy.deepcopy(word)
        doc[2][1] = value
        yield doc
    yield [word[0], word[1][:-1], word[2], word[3]]
    yield [word[0], word[1], word[2] + [0], word[3]]


@pytest.mark.parametrize("doc", list(_received_cases()))
@pytest.mark.parametrize("source", ["--received", "--received-file"])
def test_cli_received_word_refused_with_exit_2(capsys, tmp_path, doc, source):
    text = json.dumps(doc)
    if source == "--received-file":
        path = tmp_path / "received.json"
        path.write_text(text)
        text = str(path)
    code = main(["oracle", "list", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2", source, text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "received word" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("translate", [True, 0.5, "1", -0.0])
def test_bound3_certificate_translate_is_an_integer_or_null(translate):
    doc = _bound3_doc()
    doc["meta"]["translate"] = translate
    with pytest.raises(ValueError, match="'meta.translate' must be an integer"):
        certificate_from_jsonable(doc)
    doc["meta"]["translate"] = None
    assert certificate_from_jsonable(doc).meta["translate"] is None


CDC_CASES = [case for case in CASES if case[0] == "constant-dimension code"]


@pytest.mark.parametrize("reader, case, doc, field", CDC_CASES, ids=[c[1] for c in CDC_CASES])
def test_cli_construct_crc_refuses_malformed_cdc_with_exit_2(capsys, tmp_path, reader, case, doc, field):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(lifted_mrd_cdc(4, 2, 4, 2).to_jsonable()))
    bad.write_text(json.dumps(doc))
    for m_file, n_file in ((bad, good), (good, bad)):
        code = main(["construct", "crc", "--m-file", str(m_file), "--n-file", str(n_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert field in captured.err and "Traceback" not in captured.err


# --- round trips ----------------------------------------------------------------------------


CERTIFY_WITNESSES = [
    lambda: bound1_witness(GabidulinCode(make_field(2, 4), n=4, k=2), 2),
    lambda: bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2),
    lambda: bound1_witness(GabidulinCode(make_field(3, 4), n=4, k=2), 2),
    lambda: bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 2),
    lambda: bound1_alt_witness(CodeParams(q=3, m=3, n=3, d=3), 1),
    lambda: bound3_witness(n=6, m=6, tau=2, d=3, q=2),
    lambda: bound3_witness(n=6, m=6, tau=2, d=3, q=2, translate=0),
]


@pytest.mark.parametrize("make", CERTIFY_WITNESSES)
def test_certificate_round_trip(make):
    cert = make()
    text = cert.to_json()
    back = certificate_from_jsonable(json.loads(text))
    assert back == cert and back.to_json() == text


def test_every_document_round_trips_through_its_reader():
    for name, (make, read, *_) in READERS.items():
        doc = make()
        back = read(json.loads(json.dumps(doc)))
        if "certificate" in name:
            written = json.loads(back.to_json())
        elif isinstance(back, LinearizedPoly):
            written = F16.word_to_jsonable(back.coeffs)
        else:
            written = back.to_jsonable()
        assert written == doc, name
