from __future__ import annotations

import pytest

from vsi import (
    OrientedCycleError,
    ParseError,
    Quiver,
    UnknownVertexError,
    euler_data,
    euler_form,
    example_quiver,
    inj_vector,
    load_quiver,
    path_count,
    proj_vector,
    tau,
    tau_inverse,
    tits_form,
)
from vsi.quiver import apply_int_matrix, check_dim_vector


def test_example_quiver_euler_matrices(ex_quiver):
    d = euler_data(ex_quiver)
    assert d.e == ((1, -1, 0), (0, 1, -2), (0, 0, 1))
    assert d.e_inv == ((1, 1, 2), (0, 1, 2), (0, 0, 1))
    assert d.et_inv == ((1, 0, 0), (1, 1, 0), (2, 2, 1))


def test_vertex_order_is_topological_with_input_tie_break():
    q = Quiver(["b", "a", "c"], [("c", "a"), ("c", "b")])
    assert q.names == ("c", "b", "a")
    # arrows keep input order, endpoints re-indexed
    assert q.arrows == ((0, 2), (0, 1))


def test_euler_matrix_is_upper_unitriangular_for_any_input_order():
    q = Quiver(["3", "2", "1"], [("1", "2"), ("2", "3"), ("2", "3")])
    e = euler_data(q).e
    for i in range(q.n):
        assert e[i][i] == 1
        for j in range(i):
            assert e[i][j] == 0


def test_inverse_matrices_multiply_to_identity():
    q = Quiver(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])
    d = euler_data(q)
    n = q.n
    for a, b in ((d.e, d.e_inv),):
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # (E^t)^{-1} is the transpose of E^{-1}
    assert d.et_inv == tuple(zip(*d.e_inv))


def test_oriented_cycle_rejected():
    with pytest.raises(OrientedCycleError):
        Quiver(["1", "2"], [("1", "2"), ("2", "1")])


def test_unknown_vertex_rejected():
    with pytest.raises(UnknownVertexError):
        Quiver(["1", "2"], [("1", "3")])


def test_duplicate_vertex_rejected():
    with pytest.raises(ParseError):
        Quiver(["1", "1"], [])


def test_paths_of_example_quiver(ex_quiver):
    q = ex_quiver
    assert q.paths(0, 0) == ((),)
    assert q.paths(0, 1) == ((0,),)
    # two parallel arrows 2 -> 3 give two arrow-paths and two composites
    assert q.paths(1, 2) == ((1,), (2,))
    assert q.paths(0, 2) == ((0, 1), (0, 2))
    assert q.paths(2, 0) == ()
    assert q.path_index(0, 2, (0, 2)) == 1


def test_path_count_matches_inverse_euler_matrix(ex_quiver):
    q = ex_quiver
    e_inv = euler_data(q).e_inv
    for u in range(q.n):
        for v in range(q.n):
            assert path_count(q, u, v) == len(q.paths(u, v)) == e_inv[u][v]


def test_projective_and_injective_dimension_vectors(ex_quiver):
    q = ex_quiver
    assert proj_vector(q, 0) == (1, 1, 2)
    assert proj_vector(q, "2") == (0, 1, 2)
    assert proj_vector(q, 2) == (0, 0, 1)
    assert inj_vector(q, 0) == (1, 0, 0)
    assert inj_vector(q, 1) == (1, 1, 0)
    assert inj_vector(q, "3") == (2, 2, 1)


def test_euler_form_against_arrow_sum_formula(ex_quiver):
    q = ex_quiver
    a, b = (1, 2, -3), (2, 0, 5)
    direct = sum(a[v] * b[v] for v in range(q.n)) - sum(
        a[t] * b[h] for t, h in q.arrows
    )
    assert euler_form(q, a, b) == direct
    assert tits_form(q, a) == euler_form(q, a, a)


def test_tau_and_tau_inverse_are_inverse_on_lattice(ex_quiver):
    q = ex_quiver
    for a in ((1, 0, 0), (1, 2, -3), (0, 4, 1)):
        assert tau_inverse(q, tau(q, a)) == check_dim_vector(q, a)
    # tau sends projectives to minus injectives
    for v in range(q.n):
        assert tau(q, proj_vector(q, v)) == tuple(-x for x in inj_vector(q, v))


def test_apply_int_matrix_is_plain_matrix_vector_product():
    m = ((1, 2), (0, -1))
    assert apply_int_matrix(m, (3, 4)) == (11, -4)


def test_load_quiver_line_format_round_trip(ex_quiver):
    text = "# example\n1 -> 2\n\n2 -> 3\n2 -> 3\n"
    q = load_quiver(text)
    assert q == example_quiver()
    as_json = (
        '{"vertices": ["1", "2", "3"], "arrows": [["1", "2"], ["2", "3"], ["2", "3"]]}'
    )
    assert load_quiver(as_json) == q


def test_load_quiver_json_format():
    q = load_quiver('{"vertices": ["a", "b"], "arrows": [["a", "b"]]}')
    assert q.names == ("a", "b")
    assert q.arrows == ((0, 1),)


def test_load_quiver_bad_inputs():
    with pytest.raises(ParseError):
        load_quiver("")
    with pytest.raises(ParseError):
        load_quiver("1 - 2")
    with pytest.raises(ParseError):
        load_quiver('{"vertices": ["1"]}')
    with pytest.raises(ParseError):
        load_quiver('{"vertices": ["1"], "arrows": [["1"]]}')


def test_check_dim_vector_accepts_negatives_rejects_bad_length(ex_quiver):
    assert check_dim_vector(ex_quiver, [-1, 0, 2]) == (-1, 0, 2)
    with pytest.raises(Exception):
        check_dim_vector(ex_quiver, (1, 2))
