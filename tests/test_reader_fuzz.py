"""Fuzzing of every on-disk reader: whatever the bytes, a reader either
returns a value or raises a `CmpadError` subclass (which the CLI maps to
its exit codes), never a raw `ValueError` or `TypeError`."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpad.datagen import ATTACK_TYPES, BONAFIDE
from cmpad.datasets import (
    MANIFEST_COLUMNS, MANIFEST_NAME, _read_d16, _read_netpbm, load_manifest,
)
from cmpad.errors import CmpadError
from cmpad.network import NetworkConfig, init_network, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None)

# header tokens that are numbers, near-numbers, or junk
token = st.one_of(
    st.integers(-3, 40).map(lambda n: str(n).encode()),
    st.integers().map(lambda n: str(n).encode()),
    st.sampled_from([b"", b"x", b"+4", b"4.0", b"1_6", b"0x10", b"\xff", b"255"]),
    st.binary(max_size=6),
)
sep = st.sampled_from([b" ", b"\n", b"\t", b"  ", b"\n# comment\n", b"#", b""])


def only_typed_errors(read, *args):
    try:
        return read(*args)
    except CmpadError:
        return None


@st.composite
def netpbm_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6", b"P3", b"P7"]) | st.binary(max_size=3))
    maxval = draw(st.sampled_from([b"255", b"0", b"-1"]) | token)
    parts = [magic, draw(token), draw(token), maxval]
    header = b"".join(p + draw(sep) for p in parts)
    return header + draw(st.binary(max_size=80))


@st.composite
def d16_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"D16L", b"D16B"]) | st.binary(max_size=4))
    fields = [magic, draw(token), draw(token)] + draw(st.lists(token, max_size=1))
    newline = draw(st.sampled_from([b"\n", b"", b" \n"]))
    return b" ".join(fields) + newline + draw(st.binary(max_size=80))


field_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=6
)


@st.composite
def manifest_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    header = MANIFEST_COLUMNS if draw(st.integers(0, 9)) else MANIFEST_COLUMNS[::-1]
    lines = ["\t".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        attack = draw(st.sampled_from([BONAFIDE, *ATTACK_TYPES]) | field_text)
        label = draw(st.sampled_from(["0", "1", "2", "-1", "x", "", " 1", "1.0", "01"]))
        row = [draw(st.sampled_from(["s0", "s1"])), "a.ppm", "b.pgm", label, attack,
               draw(field_text), draw(field_text)]
        lines.append("\t".join(row[: draw(st.integers(5, 8))]))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))
    return text.encode() + draw(st.sampled_from([b"", b"\xff\xfe", b"\x80"]))


json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 40) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
config_keys = st.sampled_from(list(NetworkConfig.__dataclass_fields__) + ["sEEd"])


@st.composite
def checkpoint_bytes(draw, good: bytes):
    data = bytearray(good)
    cfg_len = int.from_bytes(good[12:16], "little")
    kind = draw(st.sampled_from(["config", "flip", "truncate", "splice"]))
    if kind == "config":  # any JSON in place of the network config
        cfg = json.loads(good[16 : 16 + cfg_len])
        doc = draw(st.dictionaries(config_keys, json_value, max_size=3) | json_value)
        if isinstance(doc, dict):
            doc = {**cfg, **doc} if draw(st.booleans()) else doc
        blob = json.dumps(doc).encode()
        return good[:12] + len(blob).to_bytes(4, "little") + blob + good[16 + cfg_len :]
    if kind == "flip":  # overwrite a few bytes anywhere, headers included
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.integers(0, 255))
        return bytes(data)
    if kind == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    at = draw(st.integers(0, len(data)))
    return bytes(data[:at]) + draw(st.binary(min_size=1, max_size=16)) + bytes(data[at:])


SMALL_NET = NetworkConfig(
    input_height=4, input_width=4, blocks_per_branch=1, base_filters=1, embedding_dim=1
)


@given(raw=netpbm_bytes())
@FUZZ
def test_netpbm_reader_raises_only_typed_errors(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(raw)
    img = only_typed_errors(_read_netpbm, path)
    if img is not None:
        assert img.ndim == 3 and img.shape[0] in (1, 3) and min(img.shape) >= 1
        assert 0.0 <= img.min() and img.max() <= 1.0


@given(raw=d16_bytes())
@FUZZ
def test_d16_reader_raises_only_typed_errors(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.d16"
    path.write_bytes(raw)
    depth = only_typed_errors(_read_d16, path)
    if depth is not None:
        assert depth.ndim == 2 and min(depth.shape) >= 1
        assert depth.min() >= 0 and depth.max() <= 0xFFFF


@given(raw=manifest_bytes())
@FUZZ
def test_manifest_reader_raises_only_typed_errors(raw, tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "fuzz_manifest"
    root.mkdir(exist_ok=True)
    (root / MANIFEST_NAME).write_bytes(raw)
    records = only_typed_errors(load_manifest, root)
    for rec in records or ():
        assert rec.label == (1 if rec.attack_type == BONAFIDE else 0)


@given(data=st.data())
@FUZZ
def test_checkpoint_reader_raises_only_typed_errors(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    good = tmp_path_factory.getbasetemp() / "fuzz_good.bin"
    if not good.exists():
        save_checkpoint(init_network(SMALL_NET), good)
    path.write_bytes(data.draw(checkpoint_bytes(good.read_bytes())))
    params = only_typed_errors(load_checkpoint, path)
    if params is not None:
        for arr in params.params.values():
            assert np.isfinite(arr).all()
