import numpy as np
import pytest

from cmpad.datagen import GeneratorSpec, generate
from cmpad.datasets import (
    ManifestRecord,
    ProtocolSplit,
    load_dataset,
    load_manifest,
    make_grandtest,
    make_loo,
    read_channel,
    save_dataset,
    validate_split,
    write_manifest,
    write_raster_8bit,
    write_raster_d16,
)
from cmpad.errors import DataError
from cmpad.preprocessing import mad_normalize

SPEC = GeneratorSpec(image_size=16, n_identities=6, samples_per_identity=3, seed=21)


@pytest.fixture()
def dataset_dir(tmp_path):
    samples = generate(SPEC)
    root = tmp_path / "ds"
    records = save_dataset(samples, root)
    return root, samples, records


class TestRasterIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.floor(rng.random((3, 5, 7)) * 255) / 255
        path = tmp_path / "x.ppm"
        write_raster_8bit(path, img)
        np.testing.assert_array_equal(read_channel(path), img)

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.floor(rng.random((1, 6, 4)) * 255) / 255
        path = tmp_path / "x.pgm"
        write_raster_8bit(path, img)
        np.testing.assert_array_equal(read_channel(path), img)

    def test_d16_is_mad_normalized_on_read(self, tmp_path):
        # median 10, MAD 2, so k = 3 maps [4, 16] onto [0, 255]; 0 is invalid
        depth = np.array([[0, 2, 8, 10, 12, 18]], dtype=np.int64)
        path = tmp_path / "x.d16"
        write_raster_d16(path, depth)
        out = read_channel(path)
        np.testing.assert_array_equal(out, mad_normalize(depth)[None])
        np.testing.assert_array_equal(out, np.array([[[0, 0, 85, 128, 170, 255]]]) / 255)

    def test_d16_little_endian_layout(self, tmp_path):
        depth = np.array([[1, 258]], dtype=np.int64)
        path = tmp_path / "x.d16"
        write_raster_d16(path, depth)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert header == b"D16L 2 1"
        assert payload == b"\x01\x00\x02\x01"  # LE uint16

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_raster_8bit(path, np.zeros((1, 4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="truncated"):
            read_channel(path)
        # a header cut short, or with a field that is not an integer
        for header in (b"P5\n4 x", b"P5\n4 4", b"P5\n4 4 2y5\n"):
            path.write_bytes(header)
            with pytest.raises(DataError, match="bad netpbm header"):
                read_channel(path)


class TestDatasetRoundtrip:
    def test_pixels_byte_equal_after_roundtrip(self, dataset_dir):
        root, samples, _ = dataset_dir
        loaded, _ = load_dataset(root)
        by_id = {s.id: s for s in loaded}
        for s in samples:
            back = by_id[s.id]
            np.testing.assert_array_equal(back.x_a, s.x_a)
            np.testing.assert_array_equal(back.x_b, s.x_b)
            assert back.label == s.label and back.identity == s.identity

    def test_refuses_nonempty_dir(self, dataset_dir, tmp_path):
        root, samples, _ = dataset_dir
        with pytest.raises(DataError, match="not empty"):
            save_dataset(samples, root)
        save_dataset(samples, root, force=True)  # explicit overwrite allowed

    def test_missing_file_named(self, dataset_dir):
        root, samples, _ = dataset_dir
        victim = root / "data" / f"{samples[0].id}_a.ppm"
        victim.unlink()
        with pytest.raises(DataError, match=str(victim)):
            load_dataset(root)

    def test_duplicate_id(self, dataset_dir):
        root, _, records = dataset_dir
        write_manifest(root / "manifest.tsv", records + [records[0]])
        with pytest.raises(DataError, match="duplicate sample id"):
            load_manifest(root)

    def test_label_consistency_enforced(self, dataset_dir):
        root, _, records = dataset_dir
        bad = ManifestRecord(
            id="rogue", path_a=records[0].path_a, path_b=records[0].path_b,
            label=1, attack_type="A_VISIBLE", identity="id000",
        )
        write_manifest(root / "manifest.tsv", list(records) + [bad])
        with pytest.raises(DataError, match="inconsistent"):
            load_manifest(root)

    def test_channel_selective_loading_never_touches_other_channel(self, dataset_dir):
        root, _, _ = dataset_dir
        # removing every channel-A raster must not bother a channel-B load
        for p in (root / "data").glob("*_a.*"):
            p.unlink()
        loaded, _ = load_dataset(root, channels=("b",))
        assert all(s.x_a is None and s.x_b is not None for s in loaded)


class TestGrandtest:
    def test_even_thirds(self, dataset_dir):
        _, _, records = dataset_dir
        split = make_grandtest(records, ratios=(1 / 3, 1 / 3, 1 / 3), seed=1)
        by_id = {r.id: r for r in records}
        for fold in (split.train, split.dev, split.eval):
            assert len({by_id[i].identity for i in fold}) == 2

    def test_deterministic(self, dataset_dir):
        _, _, records = dataset_dir
        assert make_grandtest(records, seed=3) == make_grandtest(records, seed=3)

    def test_identity_disjoint(self, dataset_dir):
        _, _, records = dataset_dir
        split = make_grandtest(records, seed=5)
        validate_split(records, split)

    def test_every_attack_in_every_fold(self, dataset_dir):
        _, _, records = dataset_dir
        split = make_grandtest(records, seed=2)
        by_id = {r.id: r for r in records}
        for fold in (split.train, split.dev, split.eval):
            kinds = {by_id[i].attack_type for i in fold}
            assert kinds == {"bonafide", "A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE"}

    def test_too_few_identities(self):
        records = [
            ManifestRecord(f"s{i}", "a", "b", 1, "bonafide", f"id{i % 2}")
            for i in range(4)
        ]
        with pytest.raises(DataError, match="too few identities"):
            make_grandtest(records)


class TestLoo:
    def test_exclusion_from_train_dev(self, dataset_dir):
        _, _, records = dataset_dir
        by_id = {r.id: r for r in records}
        split = make_loo(records, "A_VISIBLE", seed=4)
        for fold in (split.train, split.dev):
            assert all(by_id[i].attack_type != "A_VISIBLE" for i in fold)

    def test_eval_only_bonafide_plus_excluded(self, dataset_dir):
        _, _, records = dataset_dir
        by_id = {r.id: r for r in records}
        split = make_loo(records, "B_VISIBLE", seed=4)
        kinds = {by_id[i].attack_type for i in split.eval}
        assert kinds == {"bonafide", "B_VISIBLE"}

    def test_validates(self, dataset_dir):
        _, _, records = dataset_dir
        for attack in ("A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE"):
            validate_split(records, make_loo(records, attack, seed=9))

    def test_three_protocols_exclude_each(self, dataset_dir):
        _, _, records = dataset_dir
        names = {make_loo(records, a, seed=1).excluded_attack
                 for a in ("A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE")}
        assert names == {"A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE"}

    def test_unknown_attack(self, dataset_dir):
        _, _, records = dataset_dir
        with pytest.raises(DataError, match="unknown attack"):
            make_loo(records, "nope", seed=0)


class TestValidateSplit:
    def test_detects_identity_leak(self, dataset_dir):
        _, _, records = dataset_dir
        split = make_grandtest(records, seed=0)
        leaked = ProtocolSplit(
            name="bad", train=split.train + (split.eval[0],), dev=split.dev,
            eval=split.eval[1:],
        )
        with pytest.raises(DataError, match="identities overlap"):
            validate_split(records, leaked)

    def test_detects_excluded_attack_leak(self, dataset_dir):
        _, _, records = dataset_dir
        by_id = {r.id: r for r in records}
        split = make_loo(records, "A_VISIBLE", seed=0)
        smuggled = next(
            r.id for r in records
            if r.attack_type == "A_VISIBLE" and r.identity == by_id[split.train[0]].identity
        )
        bad = ProtocolSplit(
            name="bad", train=split.train + (smuggled,), dev=split.dev,
            eval=split.eval, excluded_attack="A_VISIBLE",
        )
        with pytest.raises(DataError, match="excluded attack present"):
            validate_split(records, bad)
