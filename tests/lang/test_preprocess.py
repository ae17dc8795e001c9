"""Unit tests for the preprocessor (path enumeration, agent building)."""

import pytest

from repro.core.resources import ProcessorTimeRequest
from repro.errors import (
    ControlParameterError,
    InvalidJobError,
    ProgramStructureError,
)
from repro.lang.constructs import (
    LoopConstruct,
    SelectBranch,
    SelectConstruct,
    TaskConfig,
    TaskConstruct,
)
from repro.lang.expr import P
from repro.lang.params import ParameterSet
from repro.lang.preprocess import (
    build_agent,
    build_job,
    enumerate_paths,
    enumerate_paths_detailed,
)
from repro.lang.program import TunableProgram


def cfg(values=(), procs=1, dur=1.0, quality=1.0):
    return TaskConfig(tuple(values), ProcessorTimeRequest(procs, dur), quality)


def simple_task(name, deadline=10.0, **kw):
    return TaskConstruct(name, deadline, (), (cfg(),), **kw)


class TestTaskEnumeration:
    def test_single_path(self):
        prog = TunableProgram("p", ParameterSet(), (simple_task("a"),))
        chains = enumerate_paths(prog)
        assert len(chains) == 1
        assert chains[0][0].name == "a"

    def test_config_fanout(self):
        t = TaskConstruct("a", 10.0, ("g",), (cfg((1,)), cfg((2,))))
        prog = TunableProgram("p", ParameterSet(g=None), (t,))
        chains = enumerate_paths(prog)
        assert len(chains) == 2
        assert {c.params["g"] for c in chains} == {1, 2}

    def test_unification_filters_configs(self):
        t1 = TaskConstruct("a", 10.0, ("g",), (cfg((1,)), cfg((2,))))
        t2 = TaskConstruct("b", 20.0, ("g",), (cfg((1,)), cfg((2,))))
        prog = TunableProgram("p", ParameterSet(g=None), (t1, t2))
        chains = enumerate_paths(prog)
        # g must be consistent across both tasks: 2 paths, not 4.
        assert len(chains) == 2

    def test_default_initializes_env(self):
        t = TaskConstruct("a", 10.0, ("g",), (cfg((1,)), cfg((2,))))
        prog = TunableProgram("p", ParameterSet(g=2), (t,))
        chains = enumerate_paths(prog)
        assert len(chains) == 1
        assert chains[0].params["g"] == 2

    def test_sequence_is_one_path_in_order(self):
        prog = TunableProgram(
            "p", ParameterSet(), (simple_task("a"), simple_task("b"))
        )
        [chain] = enumerate_paths(prog)
        assert [t.name for t in chain] == ["a", "b"]

    def test_no_config_unifies_raises(self):
        # The default g=2 leaves task a with no configuration to choose.
        t = TaskConstruct("a", 10.0, ("g",), (cfg((1,)),))
        prog = TunableProgram("p", ParameterSet(g=2), (t,))
        with pytest.raises(InvalidJobError, match="no viable execution path"):
            enumerate_paths(prog)

    def test_expr_deadline(self):
        t = TaskConstruct("a", P("g") * 2.0, ("g",), (cfg((5,)),))
        prog = TunableProgram("p", ParameterSet(g=None), (t,))
        [chain] = enumerate_paths(prog)
        assert chain[0].deadline == 10.0

    def test_bad_deadline_value(self):
        t = TaskConstruct("a", P("g") - 5.0, ("g",), (cfg((5,)),))
        prog = TunableProgram("p", ParameterSet(g=None), (t,))
        with pytest.raises(ProgramStructureError):
            enumerate_paths(prog)


class TestSelectEnumeration:
    def make(self, when1, when2):
        sel = SelectConstruct(
            (
                SelectBranch(when=when1, body=(simple_task("fine"),),
                             finally_binds={"c": 1}),
                SelectBranch(when=when2, body=(simple_task("coarse"),),
                             finally_binds={"c": 2}),
            )
        )
        last = TaskConstruct("z", 30.0, ("c",), (cfg((1,)), cfg((2,))))
        return TunableProgram("p", ParameterSet(g=None, c=None),
                              (TaskConstruct("a", 5.0, ("g",), (cfg((1,)), cfg((2,)))),
                               sel, last))

    def test_guarded_paths(self):
        prog = self.make(P("g") == 1, P("g") == 2)
        chains = enumerate_paths(prog)
        assert len(chains) == 2
        for c in chains:
            names = [t.name for t in c]
            if c.params["g"] == 1:
                assert names == ["a", "fine", "z"]
                assert c.params["c"] == 1
            else:
                assert names == ["a", "coarse", "z"]
                assert c.params["c"] == 2

    def test_finally_restricts_downstream(self):
        prog = self.make(P("g") == 1, P("g") == 2)
        for c in enumerate_paths(prog):
            # z's config must match the c the branch assigned.
            assert c.params["c"] in (1, 2)

    def test_dead_select_kills_path(self):
        prog = self.make(P("g") == 1, P("g") == 1)
        chains = enumerate_paths(prog)
        # g=2 paths die at the select (no branch ready).
        assert all(c.params["g"] == 1 for c in chains)

    def test_all_dead_raises(self):
        prog = self.make(False, False)
        with pytest.raises(InvalidJobError):
            enumerate_paths(prog)

    def test_empty_branch_alone_contributes_no_tasks(self):
        sel = SelectConstruct((SelectBranch(when=True, body=()),))
        prog = TunableProgram("p", ParameterSet(), (sel,))
        with pytest.raises(InvalidJobError, match="contributed no tasks"):
            enumerate_paths(prog)

    def test_when_reading_an_unassigned_parameter_raises(self):
        # g is declared without a default and no task binds it before the
        # select reads it.
        sel = SelectConstruct(
            (SelectBranch(when=P("g") == 1, body=(simple_task("x"),)),)
        )
        prog = TunableProgram("p", ParameterSet(g=None), (sel,))
        with pytest.raises(ControlParameterError, match="unbound"):
            enumerate_paths(prog)

    def test_two_selects_multiply(self):
        def select(prefix):
            return SelectConstruct(
                tuple(
                    SelectBranch(when=True, body=(simple_task(f"{prefix}{i}"),))
                    for i in (1, 2)
                )
            )

        prog = TunableProgram("p", ParameterSet(), (select("a"), select("b")))
        chains = enumerate_paths(prog)
        assert sorted(tuple(t.name for t in c) for c in chains) == [
            ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
        ]

    def test_branch_assignment_prunes_later_branches(self):
        first = SelectConstruct(
            (
                SelectBranch(when=True, body=(simple_task("fine"),),
                             finally_binds={"mode": 1}),
                SelectBranch(when=True, body=(simple_task("coarse"),),
                             finally_binds={"mode": 2}),
            )
        )
        second = SelectConstruct(
            (
                SelectBranch(when=P("mode") == 1, body=(simple_task("f2"),)),
                SelectBranch(when=P("mode") == 2, body=(simple_task("c2"),)),
            )
        )
        prog = TunableProgram("p", ParameterSet(mode=None), (first, second))
        chains = enumerate_paths(prog)
        # The mismatched pairs die at the second select: 2 paths, not 4.
        assert sorted(tuple(t.name for t in c) for c in chains) == [
            ("coarse", "c2"), ("fine", "f2"),
        ]

    def test_bound_parameter_picks_the_guarded_branch(self):
        bind = TaskConstruct("a", 10.0, ("x",), (cfg((1,)),))
        sel = SelectConstruct(
            (
                SelectBranch(when=P("x") == 1, body=(simple_task("yes"),)),
                SelectBranch(when=P("x") == 2, body=(simple_task("no"),)),
            )
        )
        prog = TunableProgram("p", ParameterSet(x=None), (bind, sel))
        [chain] = enumerate_paths(prog)
        assert [t.name for t in chain] == ["a", "yes"]

    def test_bound_parameter_failing_every_guard_raises(self):
        bind = TaskConstruct("a", 10.0, ("x",), (cfg((1,)),))
        sel = SelectConstruct(
            (SelectBranch(when=P("x") == 2, body=(simple_task("b"),)),)
        )
        prog = TunableProgram("p", ParameterSet(x=None), (bind, sel))
        with pytest.raises(InvalidJobError):
            enumerate_paths(prog)

    def test_default_decides_the_guard(self):
        def prog(x):
            sel = SelectConstruct(
                (SelectBranch(when=P("x") == 1, body=(simple_task("a"),)),)
            )
            return TunableProgram("p", ParameterSet(x=x), (sel,))

        assert len(enumerate_paths(prog(1))) == 1
        with pytest.raises(InvalidJobError):
            enumerate_paths(prog(2))

    def test_finally_assignment_recorded_in_params(self):
        sel = SelectConstruct(
            (SelectBranch(when=True, body=(simple_task("a"),),
                          finally_binds={"x": 7}),)
        )
        prog = TunableProgram("p", ParameterSet(x=None), (sel,))
        [chain] = enumerate_paths(prog)
        assert chain.params == {"x": 7}

    def test_max_paths_guard_on_select_product(self):
        def select(j):
            return SelectConstruct(
                tuple(
                    SelectBranch(when=True, body=(simple_task(f"t{j}_{i}"),))
                    for i in range(4)
                )
            )

        # 4 ** 3 = 64 paths against a limit of 10.
        prog = TunableProgram("p", ParameterSet(), tuple(select(j) for j in range(3)))
        with pytest.raises(ProgramStructureError, match="max_paths"):
            enumerate_paths(prog, max_paths=10)

    def test_boolean_when(self):
        sel = SelectConstruct(
            (SelectBranch(when=True, body=(simple_task("x"),)),
             SelectBranch(when=False, body=(simple_task("y"),)))
        )
        prog = TunableProgram("p", ParameterSet(), (sel,))
        chains = enumerate_paths(prog)
        assert len(chains) == 1
        assert chains[0][0].name == "x"


class TestLoopEnumeration:
    def test_fixed_count(self):
        loop = LoopConstruct(count=3, body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(), (loop,))
        [chain] = enumerate_paths(prog)
        assert len(chain) == 3

    def test_param_count(self):
        loop = LoopConstruct(count=P("n"), body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(n=2), (loop,))
        [chain] = enumerate_paths(prog)
        assert len(chain) == 2

    def test_loop_var_in_deadline(self):
        loop = LoopConstruct(
            count=3, var="k",
            body=(TaskConstruct("s", P("k") * 10.0 + 10.0, (), (cfg(),)),),
        )
        prog = TunableProgram("p", ParameterSet(), (loop,))
        [chain] = enumerate_paths(prog)
        assert [t.deadline for t in chain] == [10.0, 20.0, 30.0]

    def test_loop_var_unbound_after(self):
        loop = LoopConstruct(count=2, var="k", body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(), (loop, simple_task("z")))
        [chain] = enumerate_paths(prog)
        assert "k" not in (chain.params or {})

    def test_zero_count_loop_with_other_tasks(self):
        loop = LoopConstruct(count=P("n"), body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(n=0), (loop, simple_task("z")))
        [chain] = enumerate_paths(prog)
        assert [t.name for t in chain] == ["z"]

    def test_zero_count_loop_alone_contributes_no_tasks(self):
        loop = LoopConstruct(count=P("n"), body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(n=0), (loop,))
        with pytest.raises(InvalidJobError, match="contributed no tasks"):
            enumerate_paths(prog)

    def test_loop_with_tunable_body_fans_out(self):
        inner = TaskConstruct("s", 10.0, ("m",), (cfg((1,)), cfg((2,))))
        loop = LoopConstruct(count=2, body=(inner,))
        prog = TunableProgram("p", ParameterSet(m=None), (loop,))
        chains = enumerate_paths(prog)
        # m unifies across iterations: 2 paths, not 4.
        assert len(chains) == 2

    def test_bad_count_value(self):
        loop = LoopConstruct(count=P("n"), body=(simple_task("s"),))
        prog = TunableProgram("p", ParameterSet(n=2.5), (loop,))
        with pytest.raises(ProgramStructureError):
            enumerate_paths(prog)

    def test_max_paths_guard(self):
        inner = TaskConstruct(
            "s", 10.0, (), tuple(cfg(()) for _ in range(4))
        )
        prog = TunableProgram("p", ParameterSet(), (inner, ))
        with pytest.raises(ProgramStructureError):
            enumerate_paths(prog, max_paths=2)


class TestBuilders:
    def make_prog(self):
        t = TaskConstruct("a", 10.0, ("g",), (cfg((1,)), cfg((2,), quality=0.5)))
        return TunableProgram("app", ParameterSet(g=None), (t,))

    def test_build_job(self):
        job = build_job(self.make_prog(), release=4.0)
        assert job.tunable
        assert job.release == 4.0
        assert job.name == "app"

    def test_build_agent(self):
        agent = build_agent(self.make_prog())
        assert agent.tunable
        assert sorted(agent.path_qualities()) == [0.5, 1.0]

    def test_detailed_paths_align(self):
        paths = enumerate_paths_detailed(self.make_prog())
        for p in paths:
            assert len(p.constructs) == len(p.chain)
            assert p.constructs[0].name == p.chain[0].name
            assert p.params == p.chain.params
