import struct

import numpy as np
import pytest

from cdam.automata import AutomatonSpec, family_tree
from cdam.errors import FormatError, IngestError, LengthError, SpecError, UnknownNameError
from cdam.ingest import (
    FrameSampler,
    compose_automaton_patterns,
    embed_label,
    fallback_embedding,
    ingest_frames,
    load_idx,
    load_word_vectors,
    random_patterns,
    read_pnm,
    write_idx_images,
    write_pnm,
)


class TestRandomPatterns:
    def test_grand_mean(self):
        pm = random_patterns(1000, 30, seed=4)
        assert 0.49 < pm.values.mean() < 0.51

    def test_deterministic(self):
        assert np.array_equal(random_patterns(50, 5, seed=1).values,
                              random_patterns(50, 5, seed=1).values)

    def test_single_value_in_range(self):
        pm = random_patterns(1, 1, seed=0)
        assert 0.0 <= pm.values[0, 0] <= 1.0

    def test_size_validation(self):
        with pytest.raises(IngestError):
            random_patterns(0, 3)


class TestIdx:
    def make_images_file(self, path, pixels, count, rows, cols):
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
            fh.write(bytes(pixels))

    def test_hand_built_fixture_exact(self, tmp_path):
        # two 2x2 images, known byte values
        path = tmp_path / "imgs.idx"
        self.make_images_file(path, [0, 51, 102, 255, 255, 204, 153, 0], 2, 2, 2)
        images, labels = load_idx(path)
        assert labels is None
        assert images.shape == (2, 4)
        assert np.allclose(images[0], [0, 51 / 255, 102 / 255, 1.0])
        assert np.allclose(images[1], [1.0, 204 / 255, 153 / 255, 0.0])

    def test_header_count_matches(self, tmp_path):
        path = tmp_path / "imgs.idx"
        self.make_images_file(path, list(range(3 * 4)), 3, 2, 2)
        images, _ = load_idx(path)
        assert images.shape[0] == 3

    def test_labels_file(self, tmp_path):
        ipath = tmp_path / "imgs.idx"
        self.make_images_file(ipath, [0, 0, 0, 0, 1, 1, 1, 1], 2, 2, 2)
        lpath = tmp_path / "labels.idx"
        with open(lpath, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(bytes([7, 3]))
        _, labels = load_idx(ipath, lpath)
        assert list(labels) == [7, 3]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000804, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes(5))  # needs 8
        with pytest.raises(LengthError):
            load_idx(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.uniform(0, 1, (3, 28 * 28))
        path = tmp_path / "rt.idx"
        write_idx_images(path, imgs, 28, 28)
        back, _ = load_idx(path)
        assert back.shape == (3, 784)
        assert np.max(np.abs(back - imgs)) <= 0.5 / 255 + 1e-12


class TestPnm:
    def test_binary_gray_round_trip(self, tmp_path):
        arr = np.array([[0, 100], [200, 255]], dtype=float)
        path = tmp_path / "f.pgm"
        write_pnm(path, arr, maxval=255)
        back, maxval = read_pnm(path)
        assert maxval == 255
        assert np.array_equal(back, arr)

    def test_ascii_gray(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n# comment\n2 2\n15\n0 5\n10 15\n")
        arr, maxval = read_pnm(path)
        assert maxval == 15
        assert np.array_equal(arr, [[0, 5], [10, 15]])

    def test_binary_color(self, tmp_path):
        arr = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
        path = tmp_path / "f.ppm"
        write_pnm(path, arr, maxval=255)
        back, _ = read_pnm(path)
        assert np.array_equal(back, arr)

    def test_sixteen_bit(self, tmp_path):
        arr = np.array([[0, 40000]], dtype=float)
        path = tmp_path / "deep.pgm"
        write_pnm(path, arr, maxval=65535)
        back, maxval = read_pnm(path)
        assert maxval == 65535
        assert np.array_equal(back, arr)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(LengthError):
            read_pnm(path)

    def test_not_pnm(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"JUNK")
        with pytest.raises(FormatError):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P2 -1 2 255\n", b"P2 0 0 255\n", b"P2 3 0 255\n",
                                        b"P5 0 4 255\n", b"P3 2 -2 255\n"])
    def test_non_positive_size_rejected(self, tmp_path, header):
        path = tmp_path / "empty.pnm"
        path.write_bytes(header + b"1 2 3 4 5 6\n")
        with pytest.raises(FormatError, match="not positive"):
            read_pnm(path)


class TestFrames:
    def test_known_pixels_exact(self, tmp_path):
        write_pnm(tmp_path / "a.pgm", np.array([[10.0, 20.0], [30.0, 40.0]]), maxval=240)
        patterns, sampler = ingest_frames(tmp_path, n=4, seed=0)
        assert sampler.normalizer == 240
        assert sorted(patterns.values[:, 0]) == pytest.approx(
            [10 / 240, 20 / 240, 30 / 240, 40 / 240]
        )

    def test_color_flatten_length_and_shared_indices(self, tmp_path):
        rng = np.random.default_rng(1)
        for k in range(3):
            write_pnm(tmp_path / f"f{k}.ppm", rng.integers(0, 255, (6, 5, 3)).astype(float))
        patterns, sampler = ingest_frames(tmp_path, n=20, seed=2)
        assert sampler.flattened_length == 6 * 5 * 3
        assert patterns.p == 3 and patterns.n == 20

    def test_constant_frame_gives_constant_pattern(self, tmp_path):
        write_pnm(tmp_path / "c.pgm", np.full((4, 4), 128.0))
        patterns, _ = ingest_frames(tmp_path, n=8, seed=3)
        assert np.allclose(patterns.values[:, 0], 128 / 255)

    def test_filename_sort_order(self, tmp_path):
        write_pnm(tmp_path / "b.pgm", np.full((2, 2), 20.0))
        write_pnm(tmp_path / "a.pgm", np.full((2, 2), 10.0))
        patterns, _ = ingest_frames(tmp_path, n=4, seed=0)
        assert patterns.values[0, 0] < patterns.values[0, 1]

    def test_dimension_mismatch(self, tmp_path):
        write_pnm(tmp_path / "a.pgm", np.zeros((2, 2)))
        write_pnm(tmp_path / "b.pgm", np.zeros((3, 3)))
        with pytest.raises(IngestError):
            ingest_frames(tmp_path, n=4, seed=0)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_frames(tmp_path, n=4, seed=0)

    def test_csv_frames_default_normalizer(self, tmp_path):
        (tmp_path / "x.csv").write_text("0.0,2.0\n4.0,8.0\n")
        patterns, sampler = ingest_frames(tmp_path, n=4, seed=0)
        assert sampler.normalizer == 8.0
        assert patterns.values.max() == 1.0

    def test_forced_normalizer(self, tmp_path):
        write_pnm(tmp_path / "a.pgm", np.full((2, 2), 120.0), maxval=255)
        _, sampler = ingest_frames(tmp_path, n=2, seed=0, normalizer=240.0)
        assert sampler.normalizer == 240.0

    def test_sampler_validation(self):
        with pytest.raises(IngestError):
            FrameSampler(10, np.array([1, 1, 2]), 1.0)
        with pytest.raises(IngestError):
            FrameSampler(10, np.array([3, 11]), 1.0)


class TestWordVectors:
    def test_fixture_exact(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 0.5 -1.25 3.0\nbeta 1.0 2.0 -0.5\n")
        table = load_word_vectors(path)
        assert np.array_equal(table["alpha"], [0.5, -1.25, 3.0])
        assert set(table) == {"alpha", "beta"}

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0\nbeta 1.0\n")
        with pytest.raises(FormatError):
            load_word_vectors(path)

    def test_embed_truncates_and_rescales(self):
        table = {"w": np.array([0.0, 2.0, 4.0, 8.0])}
        fitted = embed_label("w", 3, vectors=table)
        assert np.allclose(fitted, [0.0, 0.5, 1.0])

    def test_embed_tiles_cyclically(self):
        table = {"w": np.array([1.0, 3.0])}
        fitted = embed_label("w", 5, vectors=table)
        assert np.allclose(fitted, [0.0, 1.0, 0.0, 1.0, 0.0])

    def test_constant_vector_maps_to_half(self):
        table = {"w": np.array([2.0, 2.0])}
        assert np.allclose(embed_label("w", 4, vectors=table), 0.5)

    def test_fallback_deterministic_and_bounded(self):
        a = embed_label("mystery", 40, vectors={}, seed=3)
        b = embed_label("mystery", 40, vectors={}, seed=3)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert not np.array_equal(a, embed_label("other", 40, vectors={}, seed=3))

    def test_fallback_disabled_raises(self):
        with pytest.raises(UnknownNameError):
            embed_label("mystery", 10, vectors={}, fallback=False)

    def test_fallback_embeddings_nearly_disjoint(self):
        # cross-label overlap stays well under a label's own support size
        a = fallback_embedding("one", 200)
        b = fallback_embedding("two", 200)
        assert a.sum() == b.sum() == 50
        assert (a * b).sum() < 30


class TestComposeAutomaton:
    def test_reserved_slots_agree_exactly(self):
        spec = family_tree()
        patterns, graph, slot_map = compose_automaton_patterns(spec, n=400, seed=2)
        names = spec.vertex_names()
        assert patterns.p == 16 and graph.p == 16
        for idx, name in enumerate(names):
            if "+" in name:
                src = name.split("+")[0]
                src_idx = names.index(src)
                assert np.array_equal(
                    patterns.values[slot_map.reserved, idx],
                    patterns.values[slot_map.reserved, src_idx],
                )

    def test_slot_split_sizes(self):
        spec = family_tree()
        _, _, slot_map = compose_automaton_patterns(spec, n=401, seed=0)
        assert slot_map.reserved.shape[0] == int(np.floor(0.75 * 401))
        assert slot_map.reserved.shape[0] + slot_map.free.shape[0] == 401

    def test_random_and_supplied_share_structure(self):
        spec = family_tree()
        _, g1, _ = compose_automaton_patterns(spec, n=200, seed=0)
        rng = np.random.default_rng(5)
        spec2 = family_tree()
        spec2.state_content = {s: rng.uniform(0, 1, 200) for s in spec2.states}
        patterns, g2, slots = compose_automaton_patterns(spec2, n=200, seed=0)
        assert g1.edge_multiset() == g2.edge_multiset()
        for i, s in enumerate(spec2.states):
            assert np.array_equal(patterns.values[:, i], spec2.state_content[s])

    def test_degenerate_single_state(self):
        spec = AutomatonSpec(states=["only"], transitions=[])
        patterns, graph, _ = compose_automaton_patterns(spec, n=100, seed=0)
        assert patterns.p == 1
        assert graph.edge_multiset() == {(0, 0, 1.0): 1}

    def test_values_in_unit_interval(self):
        patterns, _, _ = compose_automaton_patterns(family_tree(), n=300, seed=1)
        assert patterns.values.min() >= 0.0 and patterns.values.max() <= 1.0

    def test_content_length_mismatch(self):
        spec = family_tree()
        spec.state_content = {s: np.zeros(50) for s in spec.states}
        with pytest.raises(IngestError):
            compose_automaton_patterns(spec, n=100, seed=0)

    def test_stimulate_overwrites_free_only(self):
        spec = family_tree()
        patterns, _, slots = compose_automaton_patterns(spec, n=200, seed=0)
        sigma = patterns.values[:, 0].copy()
        emb = np.full(slots.free.shape[0], 0.25)
        out = slots.stimulate(sigma, emb)
        assert np.array_equal(out[slots.reserved], sigma[slots.reserved])
        assert np.all(out[slots.free] == 0.25)
        assert not np.shares_memory(out, sigma)
