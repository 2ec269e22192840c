import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cmpad import datagen
from cmpad.datagen import (
    ATTACK_TYPES,
    GeneratorSpec,
    MultiModalSample,
    bonafide_pair,
    generate,
    oracle_separability,
)

SMALL = GeneratorSpec(image_size=16, n_identities=6, samples_per_identity=4, seed=5)
# large enough for the statistical oracles (200 samples per class)
STAT = GeneratorSpec(image_size=16, n_identities=10, samples_per_identity=20, seed=123)


@pytest.fixture(scope="module")
def stat_samples():
    return generate(STAT)


def by_type(samples, attack_type):
    return [s for s in samples if s.attack_type == attack_type]


class TestSpecValidation:
    def test_too_few_identities(self):
        with pytest.raises(ValueError, match="identities"):
            GeneratorSpec(n_identities=4)

    def test_bad_strength(self):
        with pytest.raises(ValueError, match="attack_strength"):
            GeneratorSpec(attack_strength=0.0)

    def test_unknown_attack(self):
        with pytest.raises(ValueError, match="unknown attack"):
            GeneratorSpec(attack_types=("C_VISIBLE",))

    @pytest.mark.parametrize("key", ["channels_a", "channels_b"])
    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_channel_count_a_raster_cannot_hold(self, key, count):
        with pytest.raises(ValueError, match=f"generator.{key}"):
            GeneratorSpec(**{key: count})

    def test_no_attack_types(self):
        with pytest.raises(ValueError, match="generator.attack_types"):
            GeneratorSpec(attack_types=())

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_noise_sigma_finite_and_non_negative(self, sigma):
        # NaN noise made every x_a pixel NaN; inf saturated every pixel to 0 or 1
        with pytest.raises(ValueError, match="generator.noise_sigma"):
            GeneratorSpec(noise_sigma=sigma)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert [s.id for s in a] == [s.id for s in b]
        for sa, sb in zip(a, b):
            assert sa.x_a.tobytes() == sb.x_a.tobytes()
            assert sa.x_b.tobytes() == sb.x_b.tobytes()

    def test_seed_changes_data(self):
        a = generate(SMALL)
        b = generate(GeneratorSpec(**{**SMALL.__dict__, "seed": 6}))
        assert any(sa.x_a.tobytes() != sb.x_a.tobytes() for sa, sb in zip(a, b))


def sample_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.id.encode())
        h.update(s.x_a.tobytes())
        h.update(s.x_b.tobytes())
    return h.hexdigest()


# sha256 over every sample's id, x_a and x_b bytes (float64, little-endian),
# in generate's order. A change to how samples are computed must leave
# these digests, and so every dataset built from a spec, as they are.
PINNED = [
    (GeneratorSpec(), "cc7983ec0fbd549a090dec956ca40ee4dd2b8e1a4f691d86cdd005a53a579545"),
    (GeneratorSpec(image_size=8, channels_a=1, channels_b=1, samples_per_identity=1,
                   n_identities=6),
     "d78d60e5cbc4d90d9db812bc55a454f8bf816f11b1ec014d96460fed579ce73b"),
    (GeneratorSpec(attack_types=("A_VISIBLE",)),
     "bc982b4af302fc310c186eae100aabdeb6f8d96a2ad764436037633ccade7480"),
    (GeneratorSpec(attack_types=("B_VISIBLE",)),
     "ad5e6878b5cc3eb101dc236eaa27f9444b11696462b928cc1bc54ca9e9b33af3"),
    (GeneratorSpec(attack_types=("BOTH_VISIBLE",)),
     "f4fed474fccc19854629bc9c4ca028cb6b1366a2d1578338707fa17131ffac91"),
]


class TestPinnedBytes:
    @pytest.mark.parametrize("spec, digest", PINNED, ids=["desk", "tiny", *ATTACK_TYPES])
    def test_generate_bytes_pinned(self, spec, digest):
        assert sample_digest(generate(spec)) == digest

    def test_bonafide_pair_is_the_generated_draw(self):
        # bonafide samples, and the channel an attack leaves alone, are bonafide_pair's bytes
        untouched = {"bonafide": "ab", "A_VISIBLE": "b", "B_VISIBLE": "a", "BOTH_VISIBLE": ""}
        for s in generate(SMALL):
            ident = int(s.identity.removeprefix("id"))
            x_a, x_b = bonafide_pair(SMALL, ident, int(s.id.split("-")[1]))
            assert (s.x_a.tobytes() == x_a.tobytes()) == ("a" in untouched[s.attack_type])
            assert (s.x_b.tobytes() == x_b.tobytes()) == ("b" in untouched[s.attack_type])


class TestWork:
    def test_identity_basis_once_per_identity(self):
        with mock.patch.object(
            datagen, "_identity_basis", wraps=datagen._identity_basis
        ) as spy:
            generate(SMALL)
        assert spy.call_count == SMALL.n_identities

    def test_samples_keep_only_their_own_pixels(self):
        # samples may be views into a shared stack, but no stack holds
        # pixels that no sample shows (such as pre-attack draws)
        arrays = [a for s in generate(SMALL) for a in (s.x_a, s.x_b)]
        owners = {id(o): o for o in (a if a.base is None else a.base for a in arrays)}
        assert sum(o.nbytes for o in owners.values()) == sum(a.nbytes for a in arrays)


class TestStructure:
    def test_counts_and_labels(self):
        samples = generate(SMALL)
        per_kind = SMALL.n_identities * SMALL.samples_per_identity
        assert len(samples) == per_kind * (1 + len(SMALL.attack_types))
        for s in samples:
            assert (s.label == 1) == (s.attack_type == "bonafide")

    def test_pixel_range_and_quantization(self):
        for s in generate(SMALL)[:20]:
            for arr in (s.x_a, s.x_b):
                assert arr.min() >= 0.0 and arr.max() <= 1.0
                np.testing.assert_array_equal(np.round(arr * 255), arr * 255)

    def test_identity_partition(self):
        samples = generate(SMALL)
        identities = {s.identity for s in samples}
        assert len(identities) == SMALL.n_identities
        for ident in identities:
            assert sum(s.identity == ident for s in samples) == len(samples) // SMALL.n_identities

    def test_unique_ids(self):
        samples = generate(SMALL)
        assert len({s.id for s in samples}) == len(samples)


class TestChannelBlindness:
    def test_a_visible_channel_b_byte_equal_to_bonafide_process(self):
        # the untouched channel of an attack is exactly the bonafide draw
        spec = GeneratorSpec(
            image_size=16, n_identities=6, samples_per_identity=3,
            attack_types=("A_VISIBLE",), seed=9,
        )
        samples = generate(spec)
        for s in by_type(samples, "A_VISIBLE"):
            ident = int(s.identity.removeprefix("id"))
            slot = int(s.id.split("-")[1])
            xa_bona, xb_bona = bonafide_pair(spec, ident, slot)
            assert s.x_b.tobytes() == xb_bona.tobytes()
            assert s.x_a.tobytes() != xa_bona.tobytes()

    def test_b_visible_channel_a_byte_equal_to_bonafide_process(self):
        spec = GeneratorSpec(
            image_size=16, n_identities=6, samples_per_identity=3,
            attack_types=("B_VISIBLE",), seed=9,
        )
        samples = generate(spec)
        for s in by_type(samples, "B_VISIBLE"):
            ident = int(s.identity.removeprefix("id"))
            slot = int(s.id.split("-")[1])
            xa_bona, xb_bona = bonafide_pair(spec, ident, slot)
            assert s.x_a.tobytes() == xa_bona.tobytes()
            assert s.x_b.tobytes() != xb_bona.tobytes()


def _marginals(samples, channel):
    arrs = [s.x_a if channel == "a" else s.x_b for s in samples]
    return [float(a.mean()) for a in arrs], [float(a.var()) for a in arrs]


class TestStatisticalContracts:
    def test_a_visible_invisible_in_channel_b(self, stat_samples):
        bona = by_type(stat_samples, "bonafide")
        avis = by_type(stat_samples, "A_VISIBLE")
        means_b, vars_b = _marginals(bona, "b")
        means_a, vars_a = _marginals(avis, "b")
        assert ks_2samp(means_b, means_a).pvalue > 0.01
        assert ks_2samp(vars_b, vars_a).pvalue > 0.01

    def test_both_visible_differs_in_both_channels(self, stat_samples):
        bona = by_type(stat_samples, "bonafide")
        both = by_type(stat_samples, "BOTH_VISIBLE")
        for channel in ("a", "b"):
            means_b, vars_b = _marginals(bona, channel)
            means_x, vars_x = _marginals(both, channel)
            p_mean = ks_2samp(means_b, means_x).pvalue
            p_var = ks_2samp(vars_b, vars_x).pvalue
            assert min(p_mean, p_var) < 0.01


class TestSeparabilityOracle:
    def test_blind_channel_near_chance(self, stat_samples):
        group = by_type(stat_samples, "bonafide") + by_type(stat_samples, "A_VISIBLE")
        assert oracle_separability(group, "b") <= 0.60

    def test_visible_channel_separable(self, stat_samples):
        group = by_type(stat_samples, "bonafide") + by_type(stat_samples, "A_VISIBLE")
        assert oracle_separability(group, "a") >= 0.90

    def test_reads_the_group_in_place(self, stat_samples):
        group = by_type(stat_samples, "bonafide") + by_type(stat_samples, "BOTH_VISIBLE")
        pixel_bytes = sum(s.x_a.nbytes for s in group)
        tracemalloc.start()
        try:
            oracle_separability(group, "a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pixel_bytes / 10, (peak, pixel_bytes)

    def test_desk_table_values(self):
        # the table `cmpad gen-data` prints for configs/desk.json: 144 + 144 samples a row
        samples = generate(GeneratorSpec())
        bona = by_type(samples, "bonafide")
        want = {"A_VISIBLE": (288, 145), "B_VISIBLE": (151, 210), "BOTH_VISIBLE": (288, 213)}
        for attack, (correct_a, correct_b) in want.items():
            group = bona + by_type(samples, attack)
            assert oracle_separability(group, "a") == correct_a / 288
            assert oracle_separability(group, "b") == correct_b / 288

    def test_single_class_rejected(self, stat_samples):
        with pytest.raises(ValueError, match="both classes"):
            oracle_separability(by_type(stat_samples, "bonafide"), "a")

    def test_too_few_samples_rejected(self):
        samples = generate(SMALL)
        with pytest.raises(ValueError, match="at least"):
            oracle_separability(samples, "a")

    def test_bad_channel(self, stat_samples):
        with pytest.raises(ValueError, match="channel"):
            oracle_separability(stat_samples, "c")
