import pytest

from chronoseq.codec import TokenSequence, read_sequences, write_sequences
from chronoseq.configfile import ConfigParseError, load_config, parse_kv_blocks, parse_kv_text, read_config


def test_scalars_and_types():
    kv = parse_kv_text(
        'name: "quoted"\nbare: word\nnum: 42\nrate: 1e-3\nflag_t: true\nflag_f: false\nempty:\n'
    )
    assert kv == {
        "name": "quoted",
        "bare": "word",
        "num": 42,
        "rate": 1e-3,
        "flag_t": True,
        "flag_f": False,
        "empty": "",
    }


def test_equals_sign_and_comments():
    kv = parse_kv_text("a = 3  # trailing comment\n# whole-line comment\nb: 'has # inside'\n")
    assert kv == {"a": 3, "b": "has # inside"}


def test_inline_and_multiline_lists():
    kv = parse_kv_text('xs: ["1", "2", "3"]\nys: [\n  "10",\n  "20",\n]\nzs: [4, 5]\n')
    assert kv["xs"] == ["1", "2", "3"]
    assert kv["ys"] == ["10", "20"]
    assert kv["zs"] == [4, 5]


def test_unterminated_list_rejected():
    with pytest.raises(ConfigParseError):
        parse_kv_text('xs: [\n "1",\n')


def test_line_without_separator_rejected():
    with pytest.raises(ConfigParseError):
        parse_kv_text("justaword\n")


def test_blocks():
    blocks = parse_kv_blocks("a: 1\nb: 2\n\n\nc: 3\n")
    assert blocks == [{"a": 1, "b": 2}, {"c": 3}]


def test_duplicate_key_is_rejected_naming_key_and_line(tmp_path):
    with pytest.raises(ConfigParseError, match=r"line 2: duplicate key 'seed'"):
        parse_kv_text("seed: 1\nseed: 2\n")
    with pytest.raises(ConfigParseError, match=r"line 6: duplicate key 'count'"):  # lines of the file
        parse_kv_blocks("# experts\n\ncount: 1\n\ncount: 2\ncount = 3\n")
    assert parse_kv_blocks("count: 1\n\ncount: 2\n") == [{"count": 1}, {"count": 2}]
    p = tmp_path / "train.cfg"
    p.write_text("lr: 0.01\nseed: 1\nseed: 2\n")
    with pytest.raises(ConfigParseError, match=r"train.cfg: line 3: duplicate key 'seed'"):
        read_config(p, {"lr": float, "seed": int})


def test_comment_only_paragraphs_are_not_blocks():
    assert parse_kv_blocks("# two experts for the demo\n\ntemperature: 0.6\ncount: 5\n") == [
        {"temperature": 0.6, "count": 5}]
    assert parse_kv_blocks("a: 1\n\n# between\n# blocks\n\nb: 2\n# trailing\n") == [{"a": 1}, {"b": 2}]


def test_format_roundtrip():
    text = 's: "text"\nn: 5\nf: true\nxs: ["a", "b"]\n'
    assert parse_kv_text(text) == {"s": "text", "n": 5, "f": True, "xs": ["a", "b"]}


def test_sequence_file_flags_roundtrip(tmp_path):
    seqs = [
        TokenSequence(("year:2000", "age:1", "gender:2", "race:3", "[VS]", "v:9202", "[VE]", "[END]"),
                      person_id="p1"),
        TokenSequence(("year:2001", "age:2", "gender:2", "race:3", "[VS]", "v:9202", "[VE]"),
                      person_id=None, hit_max_tokens=True),
    ]
    path = tmp_path / "seqs.txt"
    write_sequences(seqs, path)
    back = read_sequences(path)
    assert back[0].person_id == "p1" and not back[0].hit_max_tokens
    assert back[1].person_id is None and back[1].hit_max_tokens
    assert back[0].tokens == seqs[0].tokens and back[1].tokens == seqs[1].tokens


def test_load_config_converts_to_declared_types():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Spec:
        name: str
        ids: frozenset[int]
        order: tuple[int, ...] = ()
        size: int = 1
        rate: float = 0.5
        flag: bool = False

        def __post_init__(self):
            if self.size <= 0:
                raise ValueError("size must be positive")

    got = load_config({"name": 7, "ids": "9201", "order": ["3", 1], "size": 512.0, "rate": 2, "flag": True},
                      Spec, "spec.cfg")
    assert got == Spec(name="7", ids=frozenset({9201}), order=(3, 1), size=512, rate=2.0, flag=True)
    assert type(got.size) is int and type(got.rate) is float
    assert load_config({"ids": [1]}, Spec, "spec.cfg", defaults={"name": "x"}).name == "x"
    assert load_config({"ids": 1}, Spec, "spec.cfg", name="fixed").name == "fixed"
    assert load_config({"n": "4", "xs": 5}, {"n": int, "xs": tuple[int, ...], "unused": float}, "m.cfg") == \
        {"n": 4, "xs": (5,)}
    faults = [
        ({"name": "a", "ids": [1], "size": 2.5}, "size"),
        ({"name": "a", "ids": [1], "size": True}, "size"),
        ({"name": "a", "ids": [1], "flag": "off"}, "flag"),
        ({"name": "a", "ids": [1], "flag": 1}, "flag"),
        ({"name": "a", "ids": ["x"]}, "ids"),
        ({"name": "a", "ids": [1], "rate": [1.0]}, "rate"),
        ({"name": ["a"], "ids": [1]}, "name"),
        ({"name": "a", "ids": [1], "other": 1}, "unknown field(s): other"),
        ({"name": "a"}, "missing required field(s): ids"),
        ({"name": "a", "ids": [1], "size": 0}, "size must be positive"),
    ]
    for kv, text in faults:
        with pytest.raises(ConfigParseError, match="^spec.cfg: ") as e:
            load_config(kv, Spec, "spec.cfg")
        assert text in str(e.value)


def test_read_config_names_the_file_on_parse_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("justaword\n")
    with pytest.raises(ConfigParseError, match="bad.cfg: line 1"):
        read_config(p, {"a": int})
