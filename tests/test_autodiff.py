"""Tape primitives: forward values, adjoints against finite differences,
and the taped-backward property that gradients can be differentiated again."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from conftest import assert_grad_close, fd_gradient


def leafy(data):
    tape = ad.Tape()
    return tape, tape.leaf(np.asarray(data, dtype=np.float64))


class TestForwardValues:
    def test_add(self):
        tape, x = leafy([1.0, 2.0])
        y = ad.add(x, tape.constant([3.0, 4.0]))
        np.testing.assert_array_equal(y.data, [4.0, 6.0])

    def test_mul_grads_swap_operands(self):
        tape = ad.Tape()
        a = tape.leaf([2.0, 3.0])
        b = tape.leaf([5.0, 7.0])
        out = ad.vsum(ad.mul(a, b))
        g = tape.backward(out, wrt=[a, b])
        np.testing.assert_array_equal(g[a], [5.0, 7.0])
        np.testing.assert_array_equal(g[b], [2.0, 3.0])

    def test_exp_log_roundtrip(self):
        tape, x = leafy([0.0])
        assert ad.exp(x).data[0] == 1.0
        tape, x = leafy([1.0])
        assert ad.log(x).data[0] == 0.0
        g = tape.backward(ad.vsum(ad.log(x)), wrt=[x])
        np.testing.assert_allclose(g[x], [1.0])

    def test_relu_negative_zero_grad(self):
        tape, x = leafy([-2.0])
        y = ad.relu(x)
        assert y.data[0] == 0.0
        g = tape.backward(ad.vsum(y), wrt=[x])
        assert g[x][0] == 0.0

    def test_square(self):
        tape, x = leafy([3.0])
        y = ad.square(x)
        assert y.data[0] == 9.0
        g = tape.backward(ad.vsum(y), wrt=[x])
        assert g[x][0] == 6.0

    def test_softmax_uniform(self):
        tape, x = leafy([0.0, 0.0])
        np.testing.assert_allclose(ad.softmax(x).data, [0.5, 0.5])

    def test_logsumexp_two_zeros(self):
        tape, x = leafy([0.0, 0.0])
        np.testing.assert_allclose(ad.logsumexp(x).item(), np.log(2.0))

    def test_dot_and_matvec(self):
        tape = ad.Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, 4.0])
        assert ad.dot(a, b).item() == 11.0
        m = tape.leaf([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(ad.matvec(m, a).data, [1.0, 4.0])

    def test_cumsum(self):
        tape, x = leafy([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(ad.cumsum(x, axis=0).data, [[1.0], [3.0], [6.0]])


class TestErrors:
    def test_log_domain(self):
        tape, x = leafy([0.0, 1.0])
        with pytest.raises(ad.DomainError):
            ad.log(x)

    def test_div_by_zero(self):
        tape, x = leafy([1.0])
        with pytest.raises(ad.DomainError):
            ad.div(x, tape.constant([0.0]))

    def test_sqrt_negative(self):
        tape, x = leafy([-1.0])
        with pytest.raises(ad.DomainError):
            ad.sqrt(x)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([1.0, 2.0, 3.0])
        with pytest.raises(ad.ShapeError):
            ad.dot(a, b)
        with pytest.raises(ad.ShapeError):
            ad.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("sa, sb", [((2,), (3,)), ((2, 3), (3, 2)), ((4, 1), (2, 3))])
    def test_broadcast_mismatch(self, op, sa, sb):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError) as err:
            getattr(ad, op)(tape.leaf(np.ones(sa)), tape.leaf(np.ones(sb)))
        assert str(err.value) == f"{op}: cannot broadcast {sa} with {sb}"

    def test_fully_masked_row(self):
        tape, x = leafy([[1.0, 2.0]])
        with pytest.raises(ad.DomainError):
            ad.softmax(x, mask=np.array([[False, False]]))

    def test_backward_needs_scalar(self):
        tape, x = leafy([1.0, 2.0])
        with pytest.raises(ad.ShapeError):
            tape.backward(x, wrt=[x])

    def test_cross_tape_rejected(self):
        t1, x = leafy([1.0])
        t2, y = leafy([2.0])
        with pytest.raises(ValueError):
            ad.add(x, y)


class TestBackwardStructure:
    def test_unused_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf(np.ones((2, 2)))
        out = ad.vsum(ad.square(x))
        g = tape.backward(out, wrt=[x, unused])
        np.testing.assert_array_equal(g[unused], np.zeros((2, 2)))

    def test_leaf_behind_dead_relu_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf([-1.0, -2.0])
        w = tape.leaf([3.0])
        out = ad.add(ad.vsum(ad.relu(ad.mul(x, w))), 1.0)
        g = tape.backward(out, wrt=[x, w], as_values=True)
        for leaf in (x, w):
            assert g[leaf].op == "const"
            assert g[leaf].data.tobytes() == np.zeros_like(leaf.data).tobytes()

    def test_diamond_accumulation(self):
        # x feeds two branches that rejoin; adjoints must accumulate.
        tape, x = leafy([1.5])
        y = ad.add(ad.square(x), ad.mul(x, 3.0))
        g = tape.backward(ad.vsum(y), wrt=[x])
        np.testing.assert_allclose(g[x], [2 * 1.5 + 3.0])

    def test_linearity_of_backward(self):
        def run(a, b):
            tape, x = leafy([0.7, -0.3])
            f = ad.vsum(ad.square(x))
            g = ad.vsum(ad.exp(x))
            out = ad.add(ad.mul(a, f), ad.mul(b, g))
            return tape.backward(out, wrt=[x])[x]

        ga = run(1.0, 0.0)
        gb = run(0.0, 1.0)
        gboth = run(2.0, 3.0)
        np.testing.assert_allclose(gboth, 2.0 * ga + 3.0 * gb, rtol=1e-12)

    def test_backward_after_unrelated_graph_keeps_bits(self, rng):
        x0, y0, z0 = rng.normal(size=3), rng.normal(size=(3, 3)), rng.normal(size=3)

        def run(unrelated):
            tape = ad.Tape()
            x = tape.leaf(x0)
            if unrelated:  # a graph of its own leaf, differentiated once
                z = tape.leaf(z0)
                tape.backward(ad.vsum(ad.exp(ad.mul(z, z))), wrt=[z], as_values=True)
            y = tape.leaf(y0)
            out = ad.vsum(ad.tanh(ad.matvec(y, ad.mul(x, ad.softmax(x)))))
            g = tape.backward(out, wrt=[x, y])
            return g[x].tobytes() + g[y].tobytes()

        assert run(True) == run(False)

    def test_grad_is_value_on_same_tape(self):
        tape, x = leafy([2.0])
        y = ad.vsum(ad.square(x))
        g = tape.backward(y, wrt=[x], as_values=True)[x]
        assert isinstance(g, ad.Value)
        assert g.tape is tape


class TestFiniteDifferences:
    """Every differentiable primitive against central differences."""

    CASES = {
        "exp": lambda x: ad.vsum(ad.exp(x)),
        "log": lambda x: ad.vsum(ad.log(ad.add(ad.square(x), 0.5))),
        "tanh": lambda x: ad.vsum(ad.tanh(x)),
        "relu": lambda x: ad.vsum(ad.relu(x)),
        "sqrt": lambda x: ad.vsum(ad.sqrt(ad.add(ad.square(x), 0.5))),
        "abs": lambda x: ad.vsum(ad.absolute(x)),
        "softmax": lambda x: ad.vsum(ad.mul(ad.softmax(x), np.arange(x.size, dtype=float))),
        "logsumexp": lambda x: ad.vsum(ad.logsumexp(x)),
        "cumsum": lambda x: ad.vsum(ad.square(ad.cumsum(x, axis=0))),
        "flip": lambda x: ad.vsum(ad.mul(ad.flip(x), np.arange(x.size, dtype=float))),
        "div": lambda x: ad.vsum(ad.div(1.0, ad.add(ad.square(x), 1.0))),
        "narrow": lambda x: ad.vsum(ad.square(ad.narrow(x, 1, 3))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_primitive_fd(self, name, rng):
        build = self.CASES[name]
        x0 = rng.normal(size=6) + 0.1  # keep away from relu/abs kinks

        def f(x):
            tape = ad.Tape()
            return build(tape.leaf(x)).item()

        tape = ad.Tape()
        leaf = tape.leaf(x0)
        out = build(leaf)
        analytic = tape.backward(out, wrt=[leaf])[leaf]
        assert_grad_close(analytic, fd_gradient(f, x0))

    def test_matmul_chain_fd(self, rng):
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))

        def f(flat):
            tape = ad.Tape()
            a = tape.leaf(flat[:12].reshape(3, 4))
            b = tape.leaf(flat[12:].reshape(4, 2))
            return ad.vsum(ad.tanh(ad.matmul(a, b))).item()

        tape = ad.Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        out = ad.vsum(ad.tanh(ad.matmul(a, b)))
        g = tape.backward(out, wrt=[a, b])
        flat0 = np.concatenate([a0.ravel(), b0.ravel()])
        numeric = fd_gradient(f, flat0)
        assert_grad_close(np.concatenate([g[a].ravel(), g[b].ravel()]), numeric)

    def test_masked_softmax_fd(self, rng):
        x0 = rng.normal(size=(3, 3))
        mask = np.tril(np.ones((3, 3), dtype=bool))
        w = rng.normal(size=(3, 3))

        def f(flat):
            tape = ad.Tape()
            x = tape.leaf(flat.reshape(3, 3))
            return ad.vsum(ad.mul(ad.softmax(x, mask=mask), w)).item()

        tape = ad.Tape()
        x = tape.leaf(x0)
        out = ad.vsum(ad.mul(ad.softmax(x, mask=mask), w))
        analytic = tape.backward(out, wrt=[x])[x]
        assert_grad_close(analytic, fd_gradient(f, x0.ravel()).reshape(3, 3))

    def test_masked_entries_get_no_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros((2, 2)))
        mask = np.array([[True, False], [True, True]])
        out = ad.vsum(ad.mul(ad.softmax(x, mask=mask), np.arange(4.0).reshape(2, 2)))
        g = tape.backward(out, wrt=[x])[x]
        assert g[0, 1] == 0.0

    def test_gather_scatter_fd(self, rng):
        m0 = rng.normal(size=(4, 3))
        idx = np.array([0, 2, 2, 1])

        def f(flat):
            tape = ad.Tape()
            m = tape.leaf(flat.reshape(4, 3))
            return ad.vsum(ad.square(ad.gather_rows(m, idx))).item()

        tape = ad.Tape()
        m = tape.leaf(m0)
        out = ad.vsum(ad.square(ad.gather_rows(m, idx)))
        analytic = tape.backward(out, wrt=[m])[m]
        assert_grad_close(analytic, fd_gradient(f, m0.ravel()).reshape(4, 3))

    def test_batched_matrix_ops_fd(self, rng):
        """Leading batch axes: per-example and shared gathers, batched and
        broadcast matmuls, batched matvec, transpose and expand."""
        shapes = {"m": (2, 5, 4), "w": (2, 4, 4), "shared": (4, 2), "u": (4,), "c": (2, 4)}
        sizes = [int(np.prod(s)) for s in shapes.values()]
        rows = np.array([[0, 4, 4], [3, 1, 0]])

        def build(tape, flat):
            parts = np.split(flat, np.cumsum(sizes)[:-1])
            x = {k: tape.leaf(p.reshape(s)) for (k, s), p in zip(shapes.items(), parts)}
            y = ad.add(ad.gather_rows(x["m"], rows), ad.gather_rows(x["m"], [2, 2, 1]))
            z = ad.matmul(y, ad.transpose(x["w"]))
            out = ad.vsum(ad.tanh(ad.matmul(z, x["shared"])))
            out = ad.add(out, ad.vsum(ad.square(ad.matvec(z, x["u"]))))
            return ad.add(out, ad.vsum(ad.mul(ad.expand(x["c"], -2, 3), y))), x

        flat0 = rng.normal(size=sum(sizes))
        tape = ad.Tape()
        out, x = build(tape, flat0)
        g = tape.backward(out, wrt=list(x.values()))
        analytic = np.concatenate([g[v].ravel() for v in x.values()])
        assert_grad_close(analytic, fd_gradient(lambda f: build(ad.Tape(), f)[0].item(), flat0))

    def test_broadcast_add_fd(self, rng):
        x0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=4)

        def f(flat):
            tape = ad.Tape()
            x = tape.leaf(flat[:12].reshape(3, 4))
            b = tape.leaf(flat[12:])
            return ad.vsum(ad.square(ad.add(x, b))).item()

        tape = ad.Tape()
        x = tape.leaf(x0)
        b = tape.leaf(b0)
        out = ad.vsum(ad.square(ad.add(x, b)))
        g = tape.backward(out, wrt=[x, b])
        numeric = fd_gradient(f, np.concatenate([x0.ravel(), b0]))
        assert_grad_close(np.concatenate([g[x].ravel(), g[b]]), numeric)

    def test_concat_fd(self, rng):
        a0, b0 = rng.normal(size=3), rng.normal(size=2)

        def f(flat):
            tape = ad.Tape()
            a, b = tape.leaf(flat[:3]), tape.leaf(flat[3:])
            return ad.vsum(ad.square(ad.concat([a, b]))).item()

        tape = ad.Tape()
        a, b = tape.leaf(a0), tape.leaf(b0)
        out = ad.vsum(ad.square(ad.concat([a, b])))
        g = tape.backward(out, wrt=[a, b])
        assert_grad_close(
            np.concatenate([g[a], g[b]]), fd_gradient(f, np.concatenate([a0, b0]))
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_composite_graphs(self, seed):
        r = np.random.default_rng(seed)
        x0 = r.normal(size=5) * 0.8 + 0.05
        scale = r.normal()
        offset = r.normal(size=5)

        def build(x):
            tape = ad.Tape()
            leaf = tape.leaf(x)
            y = ad.tanh(ad.mul(leaf, scale))
            z = ad.softmax(ad.add(y, offset))
            w = ad.logsumexp(ad.mul(z, ad.exp(ad.mul(leaf, 0.3))))
            return tape, leaf, ad.add(w, ad.vsum(ad.square(y)))

        tape, leaf, out = build(x0)
        analytic = tape.backward(out, wrt=[leaf])[leaf]
        numeric = fd_gradient(lambda x: build(x)[2].item(), x0)
        assert_grad_close(analytic, numeric, rel=5e-4)


class TestTapedBackward:
    """Gradients recorded as Values support a second differentiation."""

    def test_second_derivative_of_cubic(self):
        tape = ad.Tape()
        x = tape.leaf([1.5, -2.0, 0.7])
        y = ad.vsum(ad.mul(x, ad.mul(x, x)))
        g1 = tape.backward(y, wrt=[x], as_values=True)[x]
        g2 = tape.backward(ad.vsum(g1), wrt=[x])[x]
        np.testing.assert_allclose(g2, 6.0 * np.array([1.5, -2.0, 0.7]), rtol=1e-12)

    def test_grad_through_normalized_gradient(self, rng):
        """FD check of d/dw [ c . (grad_w f / ||grad_w f||) ]."""
        w0 = rng.normal(size=4) * 0.5
        c = rng.normal(size=4)
        x = rng.normal(size=4)

        def outer(w):
            tape = ad.Tape()
            leaf = tape.leaf(w)
            f = ad.vsum(ad.exp(ad.mul(leaf, x)))
            g = tape.backward(f, wrt=[leaf], as_values=True)[leaf]
            v = ad.div(g, ad.sqrt(ad.vsum(ad.square(g))))
            return tape, leaf, ad.dot(v, tape.constant(c))

        tape, leaf, s = outer(w0)
        analytic = tape.backward(s, wrt=[leaf])[leaf]
        numeric = fd_gradient(lambda w: outer(w)[2].item(), w0)
        assert_grad_close(analytic, numeric)

    def test_second_backward_of_softmax_path(self, rng):
        x0 = rng.normal(size=4)
        w = rng.normal(size=4)

        def outer(xa):
            tape = ad.Tape()
            leaf = tape.leaf(xa)
            f = ad.vsum(ad.mul(ad.softmax(leaf), w))
            g = tape.backward(f, wrt=[leaf], as_values=True)[leaf]
            return tape, leaf, ad.vsum(ad.square(g))

        tape, leaf, s = outer(x0)
        analytic = tape.backward(s, wrt=[leaf])[leaf]
        numeric = fd_gradient(lambda x: outer(x)[2].item(), x0, h=1e-6)
        assert_grad_close(analytic, numeric, rel=5e-4)

    def test_tied_copies_give_per_example_and_summed_gradients(self, rng):
        """Per-example gradients from copies of shared leaves, then FD of a
        loss of those gradients through ``tie`` back to the shared leaves."""
        w0, u0 = rng.normal(size=2), rng.normal(size=3)
        x = rng.normal(size=(4, 5))
        c = rng.normal(size=(4, 5))

        def outer(flat):
            tape = ad.Tape()
            shared = [tape.leaf(flat[:2]), tape.leaf(flat[2:])]
            copies = [tape.leaf(np.repeat(v.data[None], 4, axis=0)) for v in shared]
            f = ad.add(ad.vsum(ad.exp(ad.mul(copies[0], x[:, :2])), axis=-1),
                       ad.square(ad.vsum(ad.mul(copies[1], x[:, 2:]), axis=-1)))
            g = tape.backward(ad.vsum(f), wrt=copies, as_values=True)
            for copy, leaf in zip(copies, shared):
                ad.tie(copy, leaf)
            flat_g = ad.concat([g[copies[0]], g[copies[1]]])
            return tape, shared, flat_g, ad.vsum(ad.mul(ad.square(flat_g), c))

        tape, shared, flat_g, loss = outer(np.concatenate([w0, u0]))
        per_example = np.concatenate([np.exp(w0 * x[:, :2]) * x[:, :2],
                                      2 * (x[:, 2:] @ u0)[:, None] * x[:, 2:]], axis=1)
        np.testing.assert_allclose(flat_g.data, per_example, rtol=1e-12)
        g = tape.backward(loss, wrt=shared)
        numeric = fd_gradient(lambda v: outer(v)[3].item(), np.concatenate([w0, u0]))
        assert_grad_close(np.concatenate([g[shared[0]], g[shared[1]]]), numeric)

    def test_tie_needs_a_leaf_after_its_source(self):
        tape = ad.Tape()
        copies = tape.leaf(np.zeros((2, 3)))
        source = tape.leaf(np.zeros(3))
        with pytest.raises(ValueError):
            ad.tie(copies, source)
