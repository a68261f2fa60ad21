import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adadenoise import (csvio, denoise, linalg, op_norm, read_matrix_csv,
                        subspace_overlap, write_matrix_csv)

from conftest import fail_lapack, package_env, row_format_csv


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class TestOpNorm:
    def test_zero_matrix(self):
        assert op_norm(np.zeros((4, 3))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            op_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rank_one(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(op_norm(-2.5 * np.outer(u, v)), 2.5,
                                   rtol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 40), (5, 300), (300, 5),
                                       (2, 50)])
    def test_matches_dense_norm(self, shape):
        a = np.random.default_rng(15).standard_normal(shape)
        assert op_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_randomized_lower_bound_oracle(self):
        """sup over unit vectors: random probes never exceed the norm and
        come close to attaining it."""
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6))
        norm = op_norm(a)
        best = 0.0
        for _ in range(1000):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            best = max(best, float(np.linalg.norm(a @ v)))
        assert best <= norm + 1e-6
        assert norm <= best * 1.25


class TestOpNormEigh(TestOpNorm):
    """`TestOpNorm` on the `np.linalg.eigh` fallback, forced by hiding
    the resolved LAPACK routines."""

    @pytest.fixture(autouse=True)
    def fallback(self, monkeypatch):
        monkeypatch.setattr(linalg, "_lapack", lambda: None)


@pytest.mark.parametrize("entry", [1e-170, 3e-160])
def test_op_norm_where_squares_underflow(backend, entry):
    """A lone entry whose square underflows a double is the matrix's
    norm, exactly: the Gram matrix is formed at unit scale, where
    nothing underflows."""
    a = np.zeros((5, 4))
    a[2, 1] = entry
    assert op_norm(a) == op_norm(-a) == entry


def test_op_norm_overflow_raises(backend):
    """A norm above the largest double raises."""
    with pytest.raises(ValueError, match="exceeds the largest double"):
        op_norm(np.full((3, 3), 1e308))


def test_op_norm_where_squares_overflow(backend):
    """Squares that overflow a double are taken at unit scale."""
    assert op_norm(np.full((3, 3), 1e160)) == pytest.approx(3e160,
                                                           rel=1e-15)


def gaussian(n, seed):
    """An n x (n + 7) standard Gaussian matrix: full rank n."""
    return np.random.default_rng(seed).standard_normal((n, n + 7))


class TestGramEigen:
    """The Gram eigendecomposition behind `linalg.gram_svd`, on each
    backend, against `np.linalg.eigh` of the short-side Gram matrix."""

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_matches_eigh(self, backend, n):
        short = gaussian(n, 20 + n)
        g = short @ short.T
        lam, w = np.linalg.eigh(g)
        top_value = lam[-1]
        for a in (short, short.T):  # the short side is a's rows, then columns
            s = linalg.gram_svd(a, math.inf, 0)[4]()
            assert np.count_nonzero(s) == n
            np.testing.assert_allclose(s ** 2, lam[::-1], rtol=0,
                                       atol=1e-12 * top_value)
            # the count of values at or above a bound between two of them,
            # and as many leading values
            for j in range(n):
                bound = math.sqrt(0.5 * (lam[j] + lam[j - 1])) if j else 0.0
                count, s_top, u, _, _ = linalg.gram_svd(a, bound, 0)
                assert count == n - j
                assert s_top.shape == (n - j,) and u.shape[1] == n - j
            assert linalg.gram_svd(a, 2.0 * s[0], 0)[0] == 0
            for k in sorted({0, 1, min(3, n), n}):
                count, s_top, u, v, _ = linalg.gram_svd(a, math.inf, k)
                assert count == 0
                np.testing.assert_allclose(s_top ** 2, lam[::-1][:k], rtol=0,
                                           atol=1e-12 * top_value)
                assert u.shape == (a.shape[0], k)
                assert v.shape == (a.shape[1], k)
                z, long = (u, v) if a is short else (v, u)
                ref = w[:, ::-1][:, :k]
                signs = np.sign(np.sum(z * ref, axis=0))
                np.testing.assert_allclose(z * signs, ref, rtol=0, atol=1e-10)
                for f in (z, long):
                    np.testing.assert_allclose(f.T @ f, np.eye(k), rtol=0,
                                               atol=1e-12)
                np.testing.assert_allclose(g @ z, z * s[:k] ** 2, rtol=0,
                                           atol=1e-12 * top_value)
                np.testing.assert_allclose(short.T @ z, long * s[:k],
                                           rtol=0, atol=1e-12)

    def test_factors_stop_at_the_rank(self, backend):
        """Factors exist for the numerical rank only: a rank-2 matrix has
        2, and the values past it read 0."""
        rng = np.random.default_rng(30)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 8))
        _, s_top, u, v, values = linalg.gram_svd(a, math.inf, 5)
        s = values()
        assert np.all(s[:2] > 0) and not np.any(s[2:])
        np.testing.assert_array_equal(s_top == 0, s == 0)
        assert u.shape == (5, 2) and v.shape == (8, 2)

    @pytest.mark.parametrize("routine", ["dsytrd", "dstebz", "dsterf",
                                         "dstemr", "dormtr"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        """A nonzero LAPACK info is a LinAlgError naming the routine, from
        the call that needs it: `dsterf` from ``values()`` only."""
        fail_lapack(monkeypatch, routine)
        a = gaussian(5, 31)
        failed = pytest.raises(np.linalg.LinAlgError, match=routine)
        if routine == "dsterf":
            values = linalg.gram_svd(a, 1.0, 2)[4]
            with failed:
                values()
        else:
            with failed:
                linalg.gram_svd(a, 1.0, 2)

    def test_eigh_failure_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg, "_lapack", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            linalg.gram_svd(gaussian(5, 32), 1.0, 2)

    def test_bundled_lapack_is_selected(self, monkeypatch):
        """Where numpy names the wheels' scipy-openblas as its BLAS, the
        LAPACK backend must resolve and be used: a broken binding fails
        here rather than quietly falling back to the full `eigh`."""
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        if deps.get("blas", {}).get("name") != "scipy-openblas":
            pytest.skip("numpy is not built on scipy-openblas")
        assert linalg._lapack() is not None

        def fail(*args, **kwargs):
            raise AssertionError("the eigh fallback was called")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        count, s, u, _, _ = linalg.gram_svd(gaussian(3, 33), 0.0, 3)
        assert count == 3 and np.all(s > 0)
        assert u.shape == (3, 3)

    def test_values_hold_no_matrix(self, backend):
        """What `values` keeps alive is O(min(m, n)): no n x n array."""
        values = linalg.gram_svd(gaussian(40, 34), math.inf, 1)[4]
        held, stack = [], [values]
        while stack:
            fn = stack.pop()
            for cell in fn.__closure__ or ():
                item = cell.cell_contents
                if callable(item) and getattr(item, "__closure__", None):
                    stack.append(item)
                elif isinstance(item, np.ndarray):
                    held.append(item.base if item.base is not None else item)
        assert held and all(arr.size <= 40 for arr in held)

    def test_resolved_on_first_use_not_on_import(self):
        code = ("import adadenoise, adadenoise.linalg as l; "
                "print(l._lapack.cache_info().currsize)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=package_env(), check=True)
        assert res.stdout.strip() == "0"


@pytest.mark.parametrize("entry", ["denoise", "write_matrix_csv", "op_norm"])
@pytest.mark.parametrize("a, message", [
    (np.ones(4), "must be 2-D"), (np.ones((0, 3)), "must be non-empty")],
    ids=["1-D", "empty"])
def test_matrix_shape_rejected(tmp_path, entry, a, message):
    """Each entry point that takes a matrix rejects one that is not 2-D
    or has no entries."""
    call = {"denoise": denoise, "op_norm": op_norm,
            "write_matrix_csv": lambda a: write_matrix_csv(
                a, tmp_path / "m.csv")}[entry]
    with pytest.raises(ValueError, match=message):
        call(a)


class TestSubspaceOverlap:
    def test_identical_basis(self):
        rng = np.random.default_rng(11)
        q = random_orthogonal(rng, 8)[:, :3]
        np.testing.assert_allclose(subspace_overlap(q, q), 1.0, atol=1e-12)

    def test_orthogonal_complement(self):
        q = np.eye(6)
        assert subspace_overlap(q[:, :2], q[:, 2:4]) == pytest.approx(0.0,
                                                                      abs=1e-14)

    def test_planar_angle(self):
        """1-D case reduces to the plain cosine."""
        theta = 0.3
        a = np.array([[1.0], [0.0], [0.0]])
        b = np.array([[math.cos(theta)], [math.sin(theta)], [0.0]])
        np.testing.assert_allclose(subspace_overlap(a, b), math.cos(theta),
                                   rtol=1e-12)

    def test_symmetry_and_invariances(self):
        rng = np.random.default_rng(12)
        a = random_orthogonal(rng, 9)[:, :3]
        b = random_orthogonal(rng, 9)[:, :3]
        val = subspace_overlap(a, b)
        assert 0.0 <= val <= 1.0 + 1e-10
        assert subspace_overlap(b, a) == pytest.approx(val, abs=1e-12)
        # column sign flips
        flip = a * np.array([1.0, -1.0, 1.0])
        assert subspace_overlap(flip, b) == pytest.approx(val, abs=1e-12)
        # rotation of either basis
        rot = random_orthogonal(rng, 3)
        assert subspace_overlap(a @ rot, b) == pytest.approx(val, abs=1e-10)

    def test_input_validation(self):
        rng = np.random.default_rng(13)
        a = random_orthogonal(rng, 6)[:, :2]
        with pytest.raises(ValueError, match="column-count"):
            subspace_overlap(a, random_orthogonal(rng, 6)[:, :3])
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_overlap(a * 1.5, a)
        with pytest.raises(ValueError, match="row-count"):
            subspace_overlap(a, random_orthogonal(rng, 5)[:, :2])


# one value of each kind the 17-digit format writes differently: a signed
# zero, the smallest subnormal, a large exponent, a decimal that is not a
# double, an integer and a small negative
GOLDEN_VALUES = [-0.0, 5e-324, 1e308, 0.1, 1.0, -2.5e-7]
GOLDEN_TOKENS = ["-0", "4.9406564584124654e-324", "1e+308",
                 "0.10000000000000001", "1", "-2.4999999999999999e-07"]


# Files off the kernel's path, or with a token it leaves to ``float()``.
IRREGULAR = {
    "crlf": b"1,2\r\n3,4\r\n",
    "bare-cr": b"1,2\r3,4\r",
    "cr-before-comma": b"1\r,2\n",
    "no-final-newline": b"1,2\n3,4",
    "spaces": b" 1 , 2\n3 ,4 \n",
    "tabs": b"\t1,2\n3,4\t\n",
    "blank-lines": b"1,2\n\n3,4\n\n",
    "leading-blank": b"\n1,2\n",
    "plus": b"+1,2\n",
    "underscore": b"1_0,2\n",
    "bom": "\ufeff1,2\n".encode(),
    "trailing-comma": b"1,2,\n3,4,\n",
    "ragged-short": b"1,2\n3\n",
    "ragged-long": b"1,2\n3,4,5\n",
    "non-utf8": b"\xff\xfe1,2\n",
    "latin1": b"1,\xe9\n",
    "whitespace-only": b"  \n\t\n",
    "empty": b"",
    "word": b"1,two\n",
    "lone-sign": b"1,-\n",
    "empty-field": b"1,,2\n",
    "other-exponents": b"1e5,1E+05\n",
    "bare-points": b".5,5.\n",
    "nul": b"1,2\x00\n",
    "unit-separator": b"1\x1f,2\n",
    "nan": b"1,nan\n",
    "infinity": b"1,Infinity\n",
    "two-points": b"1.2.3,4\n",
    "two-signs": b"--1,2\n",
    "inner-sign": b"1-2,3\n",
    "short-exponents": b"1e+5,2e-0x\n",
    "long-mantissa": b"0000000000000000000000000001,2\n",
}


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        """17 significant digits reproduce float64 exactly."""
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 7)) * np.logspace(-3, 3, 7)
        path = tmp_path / "mat.csv"
        write_matrix_csv(a, path)
        b = read_matrix_csv(path)
        assert a.shape == b.shape
        assert np.array_equal(a, b)

    def test_round_trip_exact_across_exponents(self, tmp_path):
        rng = np.random.default_rng(16)
        a = (rng.uniform(1.0, 10.0, (6, 61)) * np.logspace(-300, 300, 61)
             * rng.choice([-1.0, 1.0], (6, 61)))
        path = tmp_path / "wide.csv"
        write_matrix_csv(a, path)
        assert np.array_equal(read_matrix_csv(path), a)

    def test_format_plain_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.array([[1.0, 2.0], [3.0, 4.5]]), path)
        text = path.read_text()
        assert text == "1,2\n3,4.5\n"

    @pytest.mark.parametrize("shape", ["row", "column"])
    def test_golden_bytes(self, tmp_path, shape):
        values = np.array(GOLDEN_VALUES)
        path = tmp_path / "g.csv"
        if shape == "row":
            write_matrix_csv(values[None, :], path)
            expected = ",".join(GOLDEN_TOKENS) + "\n"
        else:
            write_matrix_csv(values[:, None], path)
            expected = "".join(tok + "\n" for tok in GOLDEN_TOKENS)
        assert path.read_bytes() == expected.encode("ascii")
        back = read_matrix_csv(path).ravel()
        assert np.array_equal(back, values)
        assert np.array_equal(np.signbit(back), np.signbit(values))

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 9), (9, 1), (1, (1 << 15) + 3), ((1 << 15) // 3 + 5, 3),
    ], ids=["1x1", "1xn", "mx1", "row-past-block", "rows-past-block"])
    def test_bytes_match_row_format(self, tmp_path, shape):
        """Any shape, including a row longer than a block and a height
        that straddles one, gives the bytes of one ``%.17g`` row format per
        row, and reads back bit for bit, signed zeros included."""
        rng = np.random.default_rng(17)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 18, shape)
        a.flat[::7] = 0.0
        a.flat[3::11] = -0.0
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path)
        assert path.read_bytes() == row_format_csv(a)
        back = read_matrix_csv(path)
        assert back.shape == a.shape and np.array_equal(back, a)
        assert np.array_equal(np.signbit(back), np.signbit(a))

    @pytest.mark.parametrize("value, token", zip(GOLDEN_VALUES, GOLDEN_TOKENS))
    def test_one_value_mid_block(self, tmp_path, value, token):
        """A single value of each golden kind, inside the kernel's window or
        outside it, lands in its place in the middle of a block of values
        inside the window."""
        a = np.random.default_rng(18).uniform(-9.0, 9.0, (300, 200))
        a[120, 77] = value
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path)
        text = path.read_bytes()
        assert text == row_format_csv(a)
        assert text.splitlines()[120].split(b",")[77] == token.encode()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="malformed") as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}:2: ")
        path.write_text("1,2\n\n3\n")
        with pytest.raises(ValueError, match="ragged") as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}:3: ")

    def test_non_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(ValueError, match="not a text file") as info:
            read_matrix_csv(path)
        assert not isinstance(info.value, UnicodeError)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("token, grid", [
        pytest.param(token, grid, id=f"grid-{token}" if grid else token)
        for grid in (False, True)
        for token in ("nan", "inf", "-inf", "1e999")])
    def test_non_finite_entry_names_its_line(self, tmp_path, token, grid):
        """A non-finite entry is named with its line: in a file with a
        blank line, which goes straight to the line loop, and at an
        interior cell of a plain 6 x 5 grid, which the kernel's path
        hands to the line loop when ``float()`` reads the entry."""
        path = tmp_path / "m.csv"
        if grid:
            rows = np.random.default_rng(21).standard_normal((6, 5))
            tokens = [["%.17g" % x for x in row] for row in rows]
            tokens[2][3] = token
            path.write_text("".join(",".join(row) + "\n" for row in tokens))
            assert csvio._csv_grid(path.read_bytes()) is not None
        else:
            path.write_text(f"1,2\n\n3,{token}\n4,{token}\n")
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:3: non-finite entry {token!r}"

    def test_tables_built_on_first_use_not_on_import(self, tmp_path):
        """Importing the package and its CLI builds none of the codec's
        tables; the first write does."""
        code = ("import sys, adadenoise, adadenoise.cli; "
                "t = adadenoise.csvio._csv_tables; "
                "print(t.cache_info().currsize); "
                "adadenoise.write_matrix_csv([[0.5]], sys.argv[1]); "
                "print(t.cache_info().currsize)")
        res = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "m.csv")],
            capture_output=True, text=True, env=package_env(), check=True)
        assert res.stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("text", IRREGULAR.values(), ids=IRREGULAR.keys())
    def test_irregular_file_reads_as_the_line_loop(self, tmp_path, text):
        """Files off the kernel's path give the line loop's array bit for
        bit, or its error text."""
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        assert read_outcome(read_matrix_csv, path) == read_outcome(
            line_loop, path)

    def test_line_loop_reads_utf8_in_any_locale(self, tmp_path):
        """The line loop decodes the bytes as UTF-8 whatever the locale: a
        no-break space (U+00A0, which ``float()`` strips) reads under the C
        locale with Python's UTF-8 mode off."""
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,\xc2\xa02\n")
        code = ("import sys; from adadenoise import read_matrix_csv; "
                "print(read_matrix_csv(sys.argv[1]).tolist())")
        res = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True,
            text=True, env={**package_env(), "PYTHONUTF8": "0", "LC_ALL": "C"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[[1.0, 2.0]]"

    @pytest.mark.parametrize("plain", [b"1.5,2\n3,4\n", "written"])
    def test_byte_order_mark_is_ignored(self, tmp_path, plain):
        """A leading UTF-8 byte-order mark, which spreadsheet exports
        write, reads as the same file without it, bit for bit (the plain
        written file goes through the kernel, the marked one through the
        line loop)."""
        path = tmp_path / "plain.csv"
        if plain == "written":
            write_matrix_csv(np.random.default_rng(51).standard_normal(
                (5, 4)), path)
        else:
            path.write_bytes(plain)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert isinstance(read_outcome(read_matrix_csv, marked), tuple)
        assert (read_outcome(read_matrix_csv, marked)
                == read_outcome(read_matrix_csv, path))

    @pytest.mark.parametrize("fmt", ["%.18e", "%.17E", "%.20f"])
    def test_other_format_goes_to_the_line_loop(self, tmp_path, monkeypatch,
                                                fmt):
        """A file whose tokens the kernel does not take (np.savetxt's
        default, upper-case exponents, 20 decimals) is handed to the line
        loop after its first line, before any pass over the whole file."""
        a = np.random.default_rng(19).standard_normal((40, 30)) * 3
        path = tmp_path / "m.csv"
        np.savetxt(path, a, fmt=fmt, delimiter=",")
        data = path.read_bytes()
        grid = csvio._csv_grid
        sizes = []

        def recording_grid(d):
            sizes.append(len(d))
            return grid(d)

        monkeypatch.setattr(csvio, "_csv_grid", recording_grid)
        assert csvio._parse_csv(data) is None
        assert sizes == [data.index(b"\n") + 1]
        assert read_outcome(read_matrix_csv, path) == read_outcome(
            line_loop, path)

    @pytest.mark.parametrize("every, kernel", [(8, True), (3, False)])
    def test_share_left_to_float(self, tmp_path, every, kernel):
        """A block that leaves a few tokens to float() stays on the
        kernel's path; one that leaves more than 1/_CSV_FLOAT_SHARE of
        them goes to the line loop.  Both read as the line loop does."""
        assert 1 / 8 < 1 / csvio._CSV_FLOAT_SHARE < 1 / 3
        a = np.random.default_rng(20).standard_normal((60, 50))
        path = tmp_path / "m.csv"
        path.write_text("".join(
            ",".join(("%.18e" if (50 * i + j) % every == 0 else "%.17g") % x
                     for j, x in enumerate(row)) + "\n"
            for i, row in enumerate(a)))
        assert (csvio._parse_csv(path.read_bytes()) is not None) == kernel
        assert read_outcome(read_matrix_csv, path) == read_outcome(
            line_loop, path)


def line_loop(path):
    """The line loop's reading of the file at `path`."""
    return csvio._read_csv_lines(path, path.read_bytes())


def read_outcome(read, path):
    """The bit patterns and shape `read` returns, or its error text."""
    try:
        a = read(path)
    except ValueError as exc:
        return str(exc)
    return a.shape, a.view(np.uint64).tobytes()


# The kernel behind `write_matrix_csv` against the "%.17g" conversion.
KERNEL = settings(max_examples=200, deadline=None, database=None,
                  derandomize=True)
finite = st.floats(allow_nan=False, allow_infinity=False)


def check_kernel(values):
    """Each entry gives the bytes of "%.17g" % x, or is flagged for the
    fallback, which only a nonzero x whose exponent lies outside
    [-6, 15] may be; a flagged entry holds the conversion itself."""
    slots, fallback = csvio._format17(np.array(values, dtype=np.float64))
    for x, slot, flagged in zip(values, slots.view(np.uint8), fallback):
        token = bytes(slot).translate(None, b"\0")
        if flagged:
            exponent = int(("%.16e" % x).split("e")[1])
            assert x != 0 and not -6 <= exponent <= 15, repr(x)
            assert token == b"%.17g"
        else:
            assert token == b"%.17g" % x, repr(x)


def near_powers_of_ten():
    """10**k (as parsed) for k in [-8, 17] and its neighbours, either sign."""
    def value(k, step, sign):
        x = float(f"1e{k}")
        if step:
            x = float(np.nextafter(x, math.inf if step > 0 else 0.0))
        return sign * x
    return st.builds(value, st.integers(-8, 17), st.integers(-1, 1),
                     st.sampled_from([1.0, -1.0]))


class TestFormat17:
    @KERNEL
    @given(st.lists(finite, min_size=1, max_size=40))
    @example([0.0, -0.0])
    def test_any_finite_double(self, values):
        check_kernel(values)

    @KERNEL
    @given(st.lists(st.builds(lambda d, e: float(f"{d}e{e - 16}"),
                              st.integers(10 ** 16, 10 ** 17 - 1),
                              st.integers(-8, 17)), min_size=1, max_size=40))
    def test_17_digit_decimals_at_every_exponent(self, values):
        check_kernel(values)

    @KERNEL
    @given(st.lists(near_powers_of_ten(), min_size=1, max_size=40))
    @example([float(np.float64(1e-6)), 1e16, 1e-5, 1e15])
    def test_neighbours_of_powers_of_ten(self, values):
        check_kernel(values)

    @KERNEL
    @given(st.lists(st.one_of(
        st.builds(lambda k, f: k + f, st.integers(10 ** 15, 2 ** 51 - 1),
                  st.sampled_from([0.25, 0.75])),
        st.builds(lambda k, f: k + f, st.integers(10 ** 14, 2 ** 49 - 1),
                  st.sampled_from([0.125, 0.375, 0.625, 0.875]))),
        min_size=1, max_size=40))
    def test_ties_round_half_even(self, values):
        """Exact 18-digit decimals ending in 5 at E = 14 and 15."""
        check_kernel(values)

    @pytest.mark.parametrize("x, token", [
        (1234567890123456.25, b"1234567890123456.2"),
        (1234567890123456.75, b"1234567890123456.8"),
        (np.nextafter(1e16, 0.0), b"9999999999999998"),
        (1e-5, b"1.0000000000000001e-05"),
        (-2.5e-6, b"-2.5000000000000002e-06"),
        (1e-4, b"0.0001"),
        (0.5, b"0.5"),
        (-0.0, b"-0"),
    ])
    def test_tokens(self, x, token):
        slots, fallback = csvio._format17(np.array([x]))
        assert not fallback[0]
        assert slots.tobytes().translate(None, b"\0") == token

    @pytest.mark.parametrize("x", [float(np.float64(1e-6)), 1e16, 5e-324])
    def test_outside_window_falls_back(self, x):
        """fl(1e-6) lies below 1e-6: its exponent is -7."""
        slots, fallback = csvio._format17(np.array([x]))
        assert fallback[0]
        assert slots.tobytes().translate(None, b"\0") == b"%.17g"


# The kernel behind `read_matrix_csv` against ``float()`` of each token.
READ = settings(max_examples=100, deadline=None, database=None,
                derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
FORMATS = (lambda x: "%.17g" % x, repr, lambda x: "%.16g" % x,
           lambda x: "%.6g" % x)


def check_tokens(path, rows):
    """A grid of the token rows reads as ``float()`` of each token, bit
    for bit (one that overflows is named as non-finite), and as the line
    loop does."""
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    want = np.array([[float(t) for t in row] for row in rows])
    if np.isfinite(want).all():
        got = read_matrix_csv(path)
        assert got.shape == want.shape
        for token, x, y in zip(np.ravel(rows), got.ravel(), want.ravel()):
            assert x.view(np.uint64) == y.view(np.uint64), token
    else:
        with pytest.raises(ValueError, match="non-finite entry"):
            read_matrix_csv(path)
    assert read_outcome(read_matrix_csv, path) == read_outcome(
        line_loop, path)


class TestParse17:
    @READ
    @given(st.lists(finite.map(lambda x: [f(x) for f in FORMATS]),
                    min_size=1, max_size=30))
    @example([["9007199254740993", "0.1", "9.9999999999999995e-07", "1e-05"],
              ["1e16", "-0", "4.9406564584124654e-324",
               "1.7976931348623157e308"],
              ["123456789012345678", "0.0000000000000000000000012345",
               "-1234567890123456.5", "0.00012345678901234567"],
              ["-12345678901234567890.123", "1.5e-22", "12345.6e-19",
               "5e+22"]])
    def test_each_token_reads_as_float(self, tmp_path, rows):
        check_tokens(tmp_path / "m.csv", rows)

    @READ
    @given(st.lists(st.builds(lambda d, point, e: (
        d[:point] + "." + d[point:] if 0 < point < len(d) else d)
        + ("" if e is None else "e%+03d" % e),
        st.integers(0, 10 ** 17 - 1).map(str), st.integers(0, 17),
        st.none() | st.integers(-30, 30)), min_size=4, max_size=40)
        .map(lambda t: [t[i:i + 4] for i in range(0, len(t) - 3, 4)]))
    def test_decimals_of_up_to_17_digits(self, tmp_path, rows):
        check_tokens(tmp_path / "m.csv", rows)

    @READ
    @given(st.lists(st.one_of(
        # odd integers in [2**53, 2**54) and 2 mod 4 in [2**54, 10**17)
        # lie halfway between doubles; so does k + 0.5 in [2**52, 2**53)
        st.integers(2 ** 52, 2 ** 53 - 1).map(lambda k: 2 * k + 1),
        st.integers(2 ** 52, 10 ** 17 // 4 - 1).map(lambda k: 4 * k + 2),
        st.integers(2 ** 52, 2 ** 53 - 1).map(lambda k: k + 0.5),
    ), min_size=1, max_size=30))
    def test_ties_and_their_neighbours(self, tmp_path, halves):
        """Exact ties, and decimals one unit of their last digit off them,
        round as ``float()`` does."""
        rows = []
        for h in halves:
            if isinstance(h, float):
                k = int(h)
                rows.append([f"{k}.5", f"{k}.4", f"{k}.6"])
            else:
                rows.append([str(h), str(h - 1), str(h + 1)])
        check_tokens(tmp_path / "m.csv", rows)

    def test_kernel_takes_the_writer_window(self):
        """Every token the writer's kernel writes is one the reader's kernel
        takes, and no other entry needs ``float()``."""
        rng = np.random.default_rng(19)
        a = (rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-6, 16, 4000)
             * rng.choice([-1.0, 1.0], 4000))
        slots, fallback = csvio._format17(a)
        tokens = [bytes(s).translate(None, b"\0")
                  for s in slots.view(np.uint8).reshape(-1, 32)]
        data = b"".join(t + b"\n" for t in tokens)
        padded = np.zeros(24 + len(data) + 16, np.uint8)
        padded[24:24 + len(data)] = np.frombuffer(data, np.uint8)
        ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
        x, ok = csvio._parse17(padded[:padded.size // 8 * 8], ends - [
            len(t) for t in tokens], ends)
        assert ok[~fallback].all()
        assert np.array_equal(x[~fallback], a[~fallback])
