import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdam.automata import AutomatonSpec, family_tree
from cdam.errors import CdamError
from cdam.ingest import (
    compose_automaton_patterns,
    embed_label,
    ingest_frames,
    load_idx,
    random_patterns,
    read_pnm,
)
from cdam.reports import write_pnm


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
        with pytest.raises(CdamError, match="need n, p >= 1, got n=0, p=3"):
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
        images = load_idx(path)
        assert images.shape == (2, 4)
        assert np.allclose(images[0], [0, 51 / 255, 102 / 255, 1.0])
        assert np.allclose(images[1], [1.0, 204 / 255, 153 / 255, 0.0])

    def test_header_count_matches(self, tmp_path):
        path = tmp_path / "imgs.idx"
        self.make_images_file(path, list(range(3 * 4)), 3, 2, 2)
        images = load_idx(path)
        assert images.shape[0] == 3

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000804, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(CdamError, match="magic 0x00000804, expected 0x00000803"):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes(5))  # needs 8
        with pytest.raises(CdamError, match="payload 5 bytes, header needs 8"):
            load_idx(path)

    def test_image_size_beyond_any_array_dimension(self, tmp_path):
        # zero images, so no payload is needed, but rows*cols exceeds the largest intp
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(CdamError, match="array dimension"):
            load_idx(path)

    # Headers are mostly well-formed with small sizes, so that a fair share
    # of the archives parse and the valid-archive branch is exercised.
    @settings(max_examples=200, deadline=None)
    @given(
        magic=st.sampled_from([0x803] * 4 + [0x801, 0, 2**32 - 1]),
        dims=st.tuples(*[st.sampled_from([0, 1, 2, 3] * 3 + [2**16, 2**32 - 1])] * 3),
        payload=st.binary(max_size=40),
        cut=st.none() | st.integers(0, 15),
    )
    def test_fuzzed_archive_loads_or_raises_cdam_error(self, tmp_path_factory, magic, dims,
                                                       payload, cut):
        # contract: a CdamError or images in [0, 1], never another exception
        raw = struct.pack(">IIII", magic, *dims) + payload
        path = tmp_path_factory.getbasetemp() / "fuzz.idx"
        path.write_bytes(raw if cut is None else raw[:cut])
        try:
            images = load_idx(path)
        except CdamError:
            return
        count, rows, cols = dims
        assert images.shape == (count, rows * cols)
        assert np.all((images >= 0.0) & (images <= 1.0))


class TestPnm:
    def test_binary_gray_round_trip(self, tmp_path):
        arr = np.array([[0, 100], [200, 255]], dtype=float)
        path = tmp_path / "f.pgm"
        write_pnm(path, arr)
        back, maxval = read_pnm(path)
        assert maxval == 255
        assert back.dtype == np.uint8
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
        write_pnm(path, arr)
        back, _ = read_pnm(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, arr)

    def test_sixteen_bit(self, tmp_path):
        arr = np.array([[0, 40000]], dtype=float)
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + arr.astype(">u2").tobytes())
        back, maxval = read_pnm(path)
        assert maxval == 65535
        assert back.dtype == np.dtype(">u2")
        assert np.array_equal(back, arr)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(CdamError, match="2 payload bytes, header needs 4"):
            read_pnm(path)

    @pytest.mark.parametrize("raw", [
        b"P5#magic\n2 #width\n1 #height\n255\n\x07\x09",  # a comment after every token
        b"P5\x0b2\x0c1\x0b255\x0c\x07\x09",                 # vertical tab and form feed
    ])
    def test_header_separators(self, tmp_path, raw):
        path = tmp_path / "sep.pgm"
        path.write_bytes(raw)
        arr, maxval = read_pnm(path)
        assert maxval == 255
        assert np.array_equal(arr, [[7, 9]])

    @pytest.mark.parametrize("raw, message", [
        (b"P5 2 1 # 255", "truncated header"),            # comment at EOF, no newline
        (b"P5 255", "truncated header"),                  # one token is not three
        (b"P5 2#x 1 255\n\x07\x09", r"non-numeric header fields \[b'2#x', b'1', b'255'\]"),
    ])
    def test_header_token_errors(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(CdamError, match=message):
            read_pnm(path)

    def test_not_pnm(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"JUNK")
        with pytest.raises(CdamError, match="not a P2/P3/P5/P6 netpbm file"):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P2 -1 2 255\n", b"P2 0 0 255\n", b"P2 3 0 255\n",
                                        b"P5 0 4 255\n", b"P3 2 -2 255\n"])
    def test_non_positive_size_rejected(self, tmp_path, header):
        path = tmp_path / "empty.pnm"
        path.write_bytes(header + b"1 2 3 4 5 6\n")
        with pytest.raises(CdamError, match="not positive"):
            read_pnm(path)

    @pytest.mark.parametrize("raw", [
        b"P2 2 2 255\n0 99999 3 4\n",      # ASCII sample above maxval
        b"P2 2 1 15\n-1 3\n",              # negative ASCII sample
        b"P2 2 1 15\nnan 3\n",             # non-finite ASCII sample
        b"P5 2 1 15\n\x00\xc8",             # binary byte above maxval
        b"P5 1 1 300\n\xff\xff",            # 16-bit sample above maxval
    ])
    def test_sample_outside_maxval_rejected(self, tmp_path, raw):
        path = tmp_path / "hot.pnm"
        path.write_bytes(raw)
        with pytest.raises(CdamError, match="outside"):
            read_pnm(path)

    @pytest.mark.parametrize("raw", [b"P2 2 1 255\n1.5 3\n", b"P2 2 1 255\n1 3e0\n",
                                     b"P3 1 1 255\n1 +2 3\n", b"P2 2 1 255\n1.0 3\n"])
    def test_non_integer_ascii_sample_rejected(self, tmp_path, raw):
        path = tmp_path / "frac.pgm"
        path.write_bytes(raw)
        with pytest.raises(CdamError, match="decimal integers"):
            read_pnm(path)

    # Headers are well-formed with small sizes and junk is spliced in at a
    # random offset only some of the time, so that a fair share of the files
    # parse and the valid-image branch is exercised.
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([b"P2", b"P3", b"P5", b"P6"] * 2 + [b"P4", b"Q2"]),
        header=st.tuples(st.integers(1, 3), st.integers(1, 3),
                         st.sampled_from([255, 255, 1, 256, 65535])),
        samples=st.lists(st.integers(0, 255), max_size=30),
        binary=st.binary(max_size=60),
        junk=st.sampled_from([None] * 4 + [b"-1", b"256", b"70000", b"nan", b"x", b"#c\n",
                                           b"0 0 255"]) | st.binary(max_size=6),
        at=st.integers(0, 80),
    )
    def test_fuzzed_netpbm_reads_or_raises_cdam_error(self, tmp_path_factory, kind, header,
                                                      samples, binary, junk, at):
        # contract: a CdamError or samples in [0, maxval], never another exception
        body = b" ".join(b"%d" % v for v in samples) if kind in (b"P2", b"P3") else binary
        raw = b"%s\n%d %d\n%d\n%s" % (kind, *header, body)
        if junk is not None:
            raw = raw[:at] + junk + raw[at:]
        path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
        path.write_bytes(raw)
        try:
            array, maxval = read_pnm(path)
        except CdamError:
            return
        assert array.ndim in (2, 3) and array.size > 0
        assert np.all((array >= 0) & (array <= maxval))


class TestFrames:
    def test_known_pixels_exact(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n240\n" + bytes([10, 20, 30, 40]))
        patterns = ingest_frames(tmp_path, n=4, seed=0)
        assert sorted(patterns.values[:, 0]) == pytest.approx(
            [10 / 240, 20 / 240, 30 / 240, 40 / 240]
        )

    def test_color_flatten_length_and_shared_indices(self, tmp_path):
        rng = np.random.default_rng(1)
        for k in range(3):
            write_pnm(tmp_path / f"f{k}.ppm", rng.integers(0, 255, (6, 5, 3)).astype(float))
        patterns = ingest_frames(tmp_path, n=20, seed=2)
        assert patterns.p == 3 and patterns.n == 20
        assert ingest_frames(tmp_path, n=6 * 5 * 3, seed=2).n == 6 * 5 * 3
        for n in (0, -1, 6 * 5 * 3 + 1):
            with pytest.raises(CdamError, match=f"cannot sample n={n} from frames of length 90"):
                ingest_frames(tmp_path, n=n, seed=2)

    def test_constant_frame_gives_constant_pattern(self, tmp_path):
        write_pnm(tmp_path / "c.pgm", np.full((4, 4), 128.0))
        patterns = ingest_frames(tmp_path, n=8, seed=3)
        assert np.allclose(patterns.values[:, 0], 128 / 255)

    def test_filename_sort_order(self, tmp_path):
        write_pnm(tmp_path / "b.pgm", np.full((2, 2), 20.0))
        write_pnm(tmp_path / "a.pgm", np.full((2, 2), 10.0))
        patterns = ingest_frames(tmp_path, n=4, seed=0)
        assert patterns.values[0, 0] < patterns.values[0, 1]

    def test_dimension_mismatch(self, tmp_path):
        write_pnm(tmp_path / "a.pgm", np.zeros((2, 2)))
        write_pnm(tmp_path / "b.pgm", np.zeros((3, 3)))
        with pytest.raises(CdamError, match=r"b.pgm: shape \(3, 3\) != first frame \(2, 2\)"):
            ingest_frames(tmp_path, n=4, seed=0)

    def test_dimension_mismatch_reported_before_a_later_unreadable_frame(self, tmp_path):
        # frames are checked as they are read, so c.pgm is never opened
        write_pnm(tmp_path / "a.pgm", np.zeros((2, 2)))
        write_pnm(tmp_path / "b.pgm", np.zeros((3, 3)))
        (tmp_path / "c.pgm").write_bytes(b"not a netpbm file")
        with pytest.raises(CdamError, match=r"b.pgm: shape \(3, 3\) != first frame \(2, 2\)"):
            ingest_frames(tmp_path, n=4, seed=0)

    @pytest.mark.parametrize("kind", ["P5", "P5-300", "P5-65535", "P6", "P2"])
    def test_equals_float_first_oracle_bitwise(self, tmp_path, kind):
        # only the sampled pixels become floats, with the floats of
        # converting every pixel first
        rng = np.random.default_rng(7)
        maxval = {"P5-300": 300, "P5-65535": 65535}.get(kind, 255)
        shape = (5, 6, 3) if kind == "P6" else (5, 6)
        for k in range(3):
            pixels = rng.integers(0, maxval + 1, shape)
            header = f"{kind[:2]}\n6 5\n{maxval}\n".encode()
            body = (" ".join(map(str, pixels.reshape(-1))).encode() if kind == "P2"
                    else pixels.astype(">u2" if maxval > 255 else np.uint8).tobytes())
            (tmp_path / f"f{k}.pnm").write_bytes(header + body)
        n, seed = 17, 4
        indices = np.sort(np.random.default_rng(seed).choice(pixels.size, n, replace=False))
        want = [read_pnm(tmp_path / f"f{k}.pnm")[0].astype(float).reshape(-1)[indices] / maxval
                for k in range(3)]
        got = ingest_frames(tmp_path, n=n, seed=seed).values
        assert np.array_equal(got, np.column_stack(want))

    def test_mixed_csv_and_netpbm_rejected(self, tmp_path):
        # no one normalizer serves both: the CSV's 1000 over maxval 255 is 3.92
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        (tmp_path / "b.csv").write_text("1000,1\n2,3\n")
        with pytest.raises(CdamError, match="mixes CSV frame b.csv and netpbm frame a.pgm"):
            ingest_frames(tmp_path, n=4, seed=0)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(CdamError, match="no frame files found in"):
            ingest_frames(tmp_path, n=4, seed=0)

    def test_csv_frames_default_normalizer(self, tmp_path):
        (tmp_path / "x.csv").write_text("0.0,2.0\n4.0,8.0\n")
        patterns = ingest_frames(tmp_path, n=4, seed=0)
        assert sorted(patterns.values[:, 0]) == [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["-3,1\n2,4\n", "1,nan\n2,4\n", "1 inf\n2 4\n", "# empty\n"])
    def test_csv_negative_non_finite_or_empty_rejected(self, tmp_path, text):
        (tmp_path / "x.csv").write_text(text)
        with pytest.raises(CdamError, match="CSV frame"):
            ingest_frames(tmp_path, n=1, seed=0)

    # Cells are mostly non-negative numbers, the matrix is rectangular, n is
    # usually the whole frame and junk is spliced in at a random offset only
    # some of the time, so that a fair share of the files parse and every
    # cell, bad ones included, reaches the pattern.
    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 9) | st.sampled_from([0, 2.5, 255, 1e300, -1, -0.5,
                                                            float("nan"), float("inf")]),
                       min_size=1, max_size=16),
        width=st.integers(1, 4),
        sep=st.sampled_from([b",", b" ", b", ", b"\t"]),
        junk=st.sampled_from([None] * 4 + [b"-1", b"nan", b"inf", b"x", b",", b"#", b"\n",
                                           b"1e999", b"\x00"]) | st.binary(max_size=6),
        at=st.integers(0, 60),
        n=st.none() | st.none() | st.integers(0, 5),
    )
    def test_fuzzed_csv_frame_ingests_or_raises_cdam_error(self, tmp_path_factory, cells, width,
                                                           sep, junk, at, n):
        # contract: a CdamError or a PatternMatrix with values in [0, 1], never another exception
        width = min(width, len(cells))
        rows = [cells[i : i + width] for i in range(0, len(cells) - width + 1, width)]
        raw = b"\n".join(sep.join(b"%r" % v for v in row) for row in rows) + b"\n"
        if junk is not None:
            raw = raw[:at] + junk + raw[at:]
        frame_dir = tmp_path_factory.getbasetemp() / "csv_fuzz"
        frame_dir.mkdir(exist_ok=True)
        (frame_dir / "frame.csv").write_bytes(raw)
        n = len(rows) * width if n is None else n
        try:
            patterns = ingest_frames(frame_dir, n=n, seed=0)
        except CdamError:
            return
        assert patterns.p == 1 and patterns.n == n
        assert np.all((patterns.values >= 0.0) & (patterns.values <= 1.0))


class TestLabelEmbedding:
    def test_deterministic_and_bounded(self):
        a = embed_label("mystery", 40, 3)
        assert np.array_equal(a, embed_label("mystery", 40, 3))
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert not np.array_equal(a, embed_label("other", 40, 3))

    def test_nearly_disjoint(self):
        # cross-label overlap stays well under a label's own support size
        a = embed_label("one", 200, 0)
        b = embed_label("two", 200, 0)
        assert a.sum() == b.sum() == 50
        assert (a * b).sum() < 30


class TestComposeAutomaton:
    def test_reserved_slots_agree_exactly(self):
        spec = family_tree()
        patterns, graph, free = compose_automaton_patterns(spec, n=400, seed=2)
        reserved = np.setdiff1d(np.arange(400), free)
        names = spec.vertex_names()
        assert patterns.p == 16 and graph.p == 16
        for idx, name in enumerate(names):
            if "+" in name:
                src = name.split("+")[0]
                src_idx = names.index(src)
                assert np.array_equal(
                    patterns.values[reserved, idx],
                    patterns.values[reserved, src_idx],
                )

    def test_slot_split_sizes(self):
        spec = family_tree()
        _, _, free = compose_automaton_patterns(spec, n=401, seed=0)
        reserved = np.setdiff1d(np.arange(401), free)
        assert reserved.shape[0] == int(np.floor(0.75 * 401))
        assert reserved.shape[0] + free.shape[0] == 401

    def test_random_and_supplied_share_structure(self):
        spec = family_tree()
        _, g1, _ = compose_automaton_patterns(spec, n=200, seed=0)
        rng = np.random.default_rng(5)
        spec2 = dataclasses.replace(
            spec, state_content={s: rng.uniform(0, 1, 200) for s in spec.states})
        patterns, g2, _ = compose_automaton_patterns(spec2, n=200, seed=0)
        assert g1.edges == g2.edges
        for i, s in enumerate(spec2.states):
            assert np.array_equal(patterns.values[:, i], spec2.state_content[s])

    def test_degenerate_single_state(self):
        spec = AutomatonSpec(states=["only"], transitions=[])
        patterns, graph, _ = compose_automaton_patterns(spec, n=100, seed=0)
        assert patterns.p == 1
        assert graph.edges == ((0, 0, 1.0),)

    def test_values_in_unit_interval(self):
        patterns, _, _ = compose_automaton_patterns(family_tree(), n=300, seed=1)
        assert patterns.values.min() >= 0.0 and patterns.values.max() <= 1.0

    def test_content_length_mismatch(self):
        spec = family_tree()
        spec = dataclasses.replace(spec, state_content={s: np.zeros(50) for s in spec.states})
        with pytest.raises(CdamError, match="has length 50, expected n=100"):
            compose_automaton_patterns(spec, n=100, seed=0)
