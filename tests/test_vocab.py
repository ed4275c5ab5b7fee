import pytest

from chronoseq.codec import TokenSequence, build_vocabulary, expand_vocabulary
from chronoseq.codec.vocab import Vocabulary


def seqs(*token_lists):
    return [TokenSequence(tuple(t)) for t in token_lists]


BASE = ["year:2000", "age:50", "gender:8532", "race:8527", "[VS]", "v:9202", "[VE]", "[END]"]


def test_contains_specials_att_range_and_observed():
    v = build_vocabulary(seqs(BASE))
    for t in ("[PAD]", "[VS]", "[VE]", "[LT]", "[END]", "D0", "D1", "D1080", "year:2000"):
        assert t in v
    assert "D1081" not in v
    # dense ids, bijection
    assert sorted(v.id_of(t) for t in v.tokens) == list(range(len(v)))
    assert all(v.token_of(v.id_of(t)) == t for t in v.tokens)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_determinism_and_order_invariance():
    a = seqs(BASE, BASE[:4] + ["[VS]", "v:9201", "c:2", "dis:8536", "[VE]", "[END]"])
    b = list(reversed(a))
    va, vb = build_vocabulary(a), build_vocabulary(b)
    assert va.tokens == vb.tokens
    assert va.serialize() == vb.serialize()
    assert va.sha256() == vb.sha256()


def test_expand_cases():
    v = build_vocabulary(seqs(BASE))
    v0, rep0 = expand_vocabulary(v, [])
    assert v0.tokens == v.tokens and rep0.added == 0

    v3, rep3 = expand_vocabulary(v, ["c:11", "c:12", "c:13"])
    assert len(v3) == len(v) + 3 and rep3.added == 3
    assert all(v3.id_of(t) == v.id_of(t) for t in v.tokens)  # old ids preserved

    vd, repd = expand_vocabulary(v, ["year:2000", "c:99"])  # one duplicate + one new
    assert len(vd) == len(v) + 1
    assert repd.added == 1 and repd.duplicates == 1


def test_expand_rejects_malformed():
    v = build_vocabulary(seqs(BASE))
    with pytest.raises(Exception):
        expand_vocabulary(v, ["not-a-token"])


def test_serialization_roundtrip(tmp_path):
    v = build_vocabulary(seqs(BASE))
    path = tmp_path / "vocab.tsv"
    v.save(path)
    v2 = Vocabulary.load(path)
    assert v2.tokens == v.tokens
    assert v2.sha256() == v.sha256()
    line0 = path.read_text().splitlines()[0].split("\t")
    assert line0 == ["0", "[PAD]", "PAD"]


def test_load_rejects_corruption(tmp_path):
    v = build_vocabulary(seqs(BASE))
    path = tmp_path / "vocab.tsv"
    v.save(path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # break dense-id invariant
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Vocabulary.load(path)


@pytest.mark.parametrize("edit,message", [
    (lambda line: line.rsplit("\t", 1)[0], "expected 3 tab-separated fields (id, token, class), got 2"),
    (lambda line: "x" + line, "id 'x2' is not an integer"),
    (lambda line: "2\tnot-a-token\tCONCEPT", "not-a-token"),
], ids=["two_columns", "non_integer_id", "unknown_token"])
def test_load_names_file_and_line_of_a_malformed_row(tmp_path, edit, message):
    path = tmp_path / "vocab.tsv"
    build_vocabulary(seqs(BASE)).save(path)
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as e:
        Vocabulary.load(path)
    assert f"{path}:3: " in str(e.value) and message in str(e.value)


def test_load_names_file_and_line_of_a_duplicate_token(tmp_path):
    path = tmp_path / "vocab.tsv"
    build_vocabulary(seqs(BASE)).save(path)
    lines = path.read_text().splitlines()
    _, token, cls_name = lines[3].split("\t")
    path.write_text("\n".join(lines + [f"{len(lines)}\t{token}\t{cls_name}"]) + "\n")  # next dense id
    with pytest.raises(ValueError) as e:
        Vocabulary.load(path)
    assert str(e.value) == f"{path}:{len(lines) + 1}: duplicate token {token!r} (first on line 4)"
