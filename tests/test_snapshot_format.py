"""The snapshot format: a pinned fixture, the checked load and the digest."""

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from evofuzzy.core import DataError, StreamConfig, chunks
from evofuzzy.datagen import SeaConfig, gen_sea
from evofuzzy.ensemble import Ensemble
from evofuzzy.selection import Selectors

# written by scripts/snapshot_fixture.py; regenerated only on a deliberate
# change of behaviour or format
FIXTURE = Path(__file__).parent / "data" / "snapshots.json"


def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def dumps(tree) -> str:
    return json.dumps(tree, sort_keys=True)


def test_fixture_is_what_training_writes():
    """Retraining the fixture's two runs writes the fixture byte for byte.

    This pins the training arithmetic, feature selection included, as
    well as the format.  Regenerate the fixture with
    scripts/snapshot_fixture.py only on a deliberate change of behaviour
    or format.
    """
    script = Path(__file__).parent.parent / "scripts" / "snapshot_fixture.py"
    spec = importlib.util.spec_from_file_location("snapshot_fixture", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert (dumps(module.snapshots()) + "\n").encode() == FIXTURE.read_bytes()


def test_fixture_keeps_the_cases_its_script_names():
    """The states that scripts/snapshot_fixture.py promises, so that a
    regenerated fixture still covers them: sea-axis has a drift member and
    an archived rule; hyperplane-ofs has an archived rule, a pinned
    detector cut and a 2-of-4 feature mask."""
    sea, hyp = fixture()["sea-axis"], fixture()["hyperplane-ofs"]

    def archived(ens):
        return sum(len(m["model"]["archive"]["centers"]) for m in ens["members"])

    assert len(sea["ensemble"]["members"]) == 2 and archived(sea["ensemble"]) >= 1
    assert archived(hyp["ensemble"]) >= 1 and hyp["ensemble"]["detector"]["cut"] is not None
    assert hyp["selectors"]["ofs_b"] == 2 and sorted(hyp["selectors"]["mask_active"]) == [0, 0, 1, 1]


@pytest.mark.parametrize("run", ["sea-axis", "hyperplane-ofs"])
def test_fixture_round_trips_byte_for_byte(run):
    state = fixture()[run]
    for cls, key in ((Ensemble, "ensemble"), (Selectors, "selectors")):
        assert dumps(cls.from_snapshot(state[key]).snapshot()) == dumps(state[key])


def leaves(tree, path=()):
    """Paths to one number per field of a snapshot tree: the field itself,
    or the first entry of an array field."""
    if isinstance(tree, dict):
        for key, v in tree.items():
            yield from leaves(v, path + (key,))
    elif isinstance(tree, list) and tree and isinstance(tree[0], dict):
        for i, v in enumerate(tree):
            yield from leaves(v, path + (i,))
    elif isinstance(tree, list):
        while tree and isinstance(tree, list):
            tree, path = tree[0], path + (0,)
        if not isinstance(tree, list):
            yield path
    elif not isinstance(tree, str) and tree is not None:
        yield path


def edited(tree, path, step):
    """A copy of tree with the value at path moved by one step up or down
    (step 1 or -1): one ulp for a float, one for an int, a flipped bool or
    0/1 entry."""
    out = copy.deepcopy(tree)
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    v = node[last]
    if isinstance(v, bool):
        node[last] = not v
    elif "window" in path or "mask_active" in path:
        node[last] = 1.0 - v
    elif isinstance(v, int):
        node[last] = v + step
    else:
        node[last] = float(np.nextafter(v, step * np.inf))
    return out


# settings for which no neighbouring value fits the rest of the snapshot,
# so the test edits them on the loaded object; the ensemble's cfg fixes
# the detector's max_window and each member's age_min through chunk_size
FIXED = {"n_features", "n_classes", "ofs_b", "cut", "chunk_size", "max_window", "age_min"}


@pytest.mark.parametrize("run", ["sea-axis", "hyperplane-ofs"])
@pytest.mark.parametrize("cls, key", [(Ensemble, "ensemble"), (Selectors, "selectors")])
def test_digest_survives_json_and_sees_every_field(run, cls, key):
    """Equal across a JSON round trip; different after a one-ulp (or
    one-count) edit of any single field, whichever way the field's range
    admits."""
    state = fixture()[run][key]
    loaded = cls.from_snapshot(state)
    base = loaded.digest()
    assert cls.from_snapshot(json.loads(dumps(loaded.snapshot()))).digest() == base
    checked = set()
    for path in leaves(state):
        field = next(k for k in reversed(path) if isinstance(k, str))
        if field in FIXED:
            changed = owner = cls.from_snapshot(state)
            for k in path[:-1]:
                owner = getattr(owner, k) if isinstance(k, str) else owner[k]
            setattr(owner, field, getattr(owner, field) + 1)
        else:
            try:
                changed = cls.from_snapshot(edited(state, path, 1))
            except DataError:
                changed = cls.from_snapshot(edited(state, path, -1))
        assert changed.digest() != base, path
        checked.add(field)
    assert checked >= ({"n_features", "ofs_b", "mask_active", "theta"} if cls is Selectors else
                       {"n_classes", "centers", "inv", "rls_cov", "age", "beta", "window", "m2"})


def reference_digest(state) -> str:
    """SHA-256 over the byte layout the README documents, walked here on
    its own: in declaration order, each array as its key, dtype and shape
    then its bytes, each scalar as key=repr(kind(value)); and each nested
    section in place, adding no bytes of its own."""
    h = hashlib.sha256()

    def walk(obj):
        for f in obj.FIELDS:
            v = getattr(obj, f.key)
            if isinstance(f.kind, list):
                for s in v:
                    walk(s)
            elif f.kind not in (int, float, bool, str):
                walk(v)
            elif f.shape:
                h.update(f"{f.key}:{v.dtype.str}{v.shape}".encode())
                h.update(v.tobytes())
            else:
                h.update(f"{f.key}={v if v is None else f.kind(v)!r};".encode())

    walk(state)
    return h.hexdigest()


def trained_sea_with_two_members():
    """A drift member, an archived rule and a 2-of-3 feature mask."""
    cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=50, ofs_b=2)
    ens, sel = Ensemble(cfg), Selectors(cfg)
    for ch in chunks(gen_sea(SeaConfig(n_total=600, seed=3, thresholds=(3.0, 14.0))), 50):
        ens.train_chunk(ch, sel)
    return ens, sel


@pytest.mark.parametrize("run", ["sea-axis", "hyperplane-ofs", "trained"])
def test_digest_is_sha256_of_the_documented_layout(run):
    if run == "trained":
        ens, sel = trained_sea_with_two_members()
        assert len(ens.members) >= 2 and any(len(m.model.archive) for m in ens.members)
    else:
        ens = Ensemble.from_snapshot(fixture()[run]["ensemble"])
        sel = Selectors.from_snapshot(fixture()[run]["selectors"])
    for state in (ens, sel):
        assert state.digest() == reference_digest(state)
    assert ens.snapshot_hash() == ens.state_bytes()
    assert hashlib.sha256(ens.snapshot_hash()).hexdigest() == ens.digest()
    # scalars are hashed in a canonical form, so numpy scalars agree
    digest = ens.digest()
    ens.members[0].beta, ens.next_uid = np.float64(ens.members[0].beta), np.int64(ens.next_uid)
    assert ens.digest() == digest


def arrays(state, path=()):
    """(path, array) of every array a state holds, derived and private
    ones included, walked over its attributes and sections."""
    for key, v in vars(state).items():
        if isinstance(v, np.ndarray):
            yield path + (key,), v
        elif isinstance(v, list):
            for i, s in enumerate(v):
                yield from arrays(s, path + (key, i))
        elif hasattr(v, "FIELDS"):
            yield from arrays(v, path + (key,))


def states_of(run):
    if run == "trained":
        return trained_sea_with_two_members()
    return (Ensemble.from_snapshot(fixture()[run]["ensemble"]),
            Selectors.from_snapshot(fixture()[run]["selectors"]))


@pytest.mark.parametrize("run", ["sea-axis", "hyperplane-ofs", "trained"])
def test_copy_holds_every_array_and_shares_none(run):
    """A copy has the original's digest, and every array, derived and
    private ones included, equal in dtype, shape and values, in memory of
    its own."""
    for state in states_of(run):
        dup = state.copy()
        assert type(dup) is type(state) and dup.digest() == state.digest()
        mine, theirs = list(arrays(state)), list(arrays(dup))
        assert [p for p, _ in mine] == [p for p, _ in theirs]
        if isinstance(state, Ensemble):
            assert {"_cum", "_eps", "volumes", "log_purity"} <= {p[-1] for p, _ in mine}
        for (path, a), (_, b) in zip(mine, theirs):
            assert a.dtype == b.dtype and np.array_equal(a, b), path
            assert not np.may_share_memory(a, b), path


@pytest.mark.parametrize("run", ["sea-axis", "hyperplane-ofs", "trained"])
def test_changing_a_copy_leaves_the_original(run):
    """Every array of the copy changed in place and a member appended to
    it: the original's digest is what it was."""
    ens, sel = states_of(run)
    before = ens.digest(), sel.digest()
    ens_copy, sel_copy = ens.copy(), sel.copy()
    for _, a in list(arrays(ens_copy)) + list(arrays(sel_copy)):
        a += 1
    ens_copy._new_member()
    assert (ens.digest(), sel.digest()) == before
    assert (ens_copy.digest(), sel_copy.digest()) != before


def test_a_copy_trains_as_the_original():
    """The copy and the original, trained on the same chunks, stay equal."""
    ens, sel = trained_sea_with_two_members()
    ens_copy, sel_copy = ens.copy(), sel.copy()
    for ch in chunks(gen_sea(SeaConfig(n_total=300, seed=4, thresholds=(3.0,))), 50):
        assert ens.train_chunk(ch, sel) == ens_copy.train_chunk(ch, sel_copy)
    assert (ens.digest(), sel.digest()) == (ens_copy.digest(), sel_copy.digest())


def test_copy_rejects_a_value_it_cannot_copy():
    ens, _ = trained_sea_with_two_members()
    ens.members[0].model.rules.extra = {"a": 1}
    with pytest.raises(TypeError, match="RuleBank.extra: cannot copy a dict"):
        ens.copy()


def loads_of_a_trained_ensemble():
    cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=100, ofs_b=2)
    ens, sel = Ensemble(cfg), Selectors(cfg)
    for ch in chunks(gen_sea(SeaConfig(n_total=300, seed=2)), 100):
        ens.train_chunk(ch, sel)
    return json.loads(dumps(ens.snapshot())), json.loads(dumps(sel.snapshot()))


# each edit returns the class to load and the section it edited

def set_m2(ens, sel):
    ens["standardizer"]["m2"] = [1.0]
    return Ensemble, ens


def set_count(ens, sel):
    ens["standardizer"]["count"] = -5
    return Ensemble, ens


def set_mask(ens, sel):
    sel["mask_active"] = [1.0]
    return Selectors, sel


def set_ofs_b(ens, sel):
    sel["ofs_b"], sel["n_features"] = 99, -2
    return Selectors, sel


def set_beta(ens, sel):
    ens["members"][0]["beta"] = float("nan")
    return Ensemble, ens


def set_rde_mean(ens, sel):
    ens["members"][0]["model"]["rde"]["mean"] = [0.5]
    return Ensemble, ens


def set_members(ens, sel):
    ens["members"] = {"0": ens["members"][0]}
    return Ensemble, ens


def set_bool_count(ens, sel):
    ens["standardizer"]["count"] = True
    return Ensemble, ens


def set_model_n_features(ens, sel):
    ens["members"][0]["model"]["n_features"] = 5
    return Ensemble, ens


def set_ragged_mean(ens, sel):
    ens["standardizer"]["mean"] = [[0.0], [0.0, 1.0], [0.0]]
    return Ensemble, ens


def set_string_mean(ens, sel):
    ens["standardizer"]["mean"] = ["0", "1", "2"]
    return Ensemble, ens


@pytest.mark.parametrize("edit, match", [
    (set_m2, r"'standardizer' has m2 of shape \(1,\), expected \(3,\)$"),
    (set_count, r"'standardizer' has count -5 outside \[0, inf\]$"),
    (set_mask, r"'selectors' has mask_active of shape \(1,\), expected \(3,\)$"),
    (set_ofs_b, r"'selectors' has n_features -2 outside \[1, 64\]$"),
    (set_beta, r"'member' has beta nan outside \[0\.0, 1\.0\]$"),
    (set_rde_mean, r"'rde' has mean of shape \(1,\), expected \(3,\)$"),
    (set_members, r"'ensemble' has members of type dict, expected list$"),
    (set_bool_count, r"'standardizer' has count of type bool, expected int$"),
    (set_model_n_features, r"'model' has n_features 5, which does not fit u = 3$"),
    (set_ragged_mean, r"'standardizer' has mean that is not an array of floats$"),
    (set_string_mean, r"'standardizer' has mean that is not an array of floats$"),
], ids=["standardizer-m2", "standardizer-count", "selectors-mask", "selectors-ofs_b",
        "member-beta", "rde-mean", "members-not-a-list", "count-a-bool", "model-n_features",
        "ragged-mean", "string-mean"])
def test_load_hole_is_data_error_naming_section_and_field(edit, match):
    ens, sel = loads_of_a_trained_ensemble()
    cls, state = edit(ens, sel)
    with pytest.raises(DataError, match=match):
        cls.from_snapshot(state)



@pytest.mark.parametrize("path, dropped", [
    (("ensemble",), "chunk_index"),
    (("selectors", "al"), "accepted"),
    (("selectors", "al"), "seen"),
    (("ensemble", "cfg"), "al_conjunction, alpha_drift, alpha_warn, penalty, theta"),
    (("ensemble", "detector"), "alpha_drift, alpha_warn"),
    (("selectors",), "conjunction"),
    (("ensemble",), "age_min"),
    (("ensemble", "members", 0), "bootstrap_count"),
])
def test_dropped_key_is_data_error_naming_it(path, dropped):
    """Ensemble.chunk_index and the active-learning counts accepted and
    seen left the format, and so did the settings that became constants:
    theta, penalty, the detector alphas and the acceptance reading, and
    the copies the learner derives: the ensemble's age_min and a member's
    bootstrap_count.  A snapshot that still holds any of them fails,
    naming each."""
    state = fixture()["sea-axis"]
    node = state
    for key in path:
        node = node[key]
    for key in dropped.split(", "):
        node[key] = 12
    cls = Ensemble if path[0] == "ensemble" else Selectors
    section = "member" if path[-1] == 0 else path[-1]
    with pytest.raises(DataError, match=f"^snapshot section '{section}' has unknown keys: {dropped}$"):
        cls.from_snapshot(state[path[0]])


@pytest.mark.parametrize("section, key, value, match", [
    ("cfg", "base_kind", "multivariate",
     r"'ensemble': member 0 has kind 'axis_parallel', but cfg base_kind 'multivariate'$"),
    ("detector", "max_window", 67,
     r"'ensemble': detector max_window 67 differs from 120, which cfg sets$"),
], ids=["base_kind", "max_window"])
def test_sections_that_disagree_are_data_error_naming_ensemble(section, key, value, match):
    """Each section loads alone, but the members and the detector must be
    what the ensemble's cfg makes."""
    state = fixture()["sea-axis"]["ensemble"]
    state[section][key] = value
    with pytest.raises(DataError, match=match):
        Ensemble.from_snapshot(state)


def test_a_snapshot_past_the_feature_bound_is_data_error_naming_cfg():
    """A snapshot of more than 64 features fails where its cfg loads."""
    state = fixture()["sea-axis"]["ensemble"]
    state["cfg"]["n_features"] = 65
    with pytest.raises(DataError, match=r"^snapshot section 'cfg': n_features must be <= 64$"):
        Ensemble.from_snapshot(state)


def test_a_selectors_snapshot_past_the_feature_bound_is_data_error():
    """A selectors snapshot of 65 features, each array 65 wide, fails on
    its n_features, which no StreamConfig admits."""
    state = fixture()["sea-axis"]["selectors"]
    state["n_features"] = state["ofs_b"] = 65
    state["mask_active"], state["mask_scores"] = [1.0] * 65, [1.0 / 65] * 65
    with pytest.raises(DataError, match=r"'selectors' has n_features 65 outside \[1, 64\]$"):
        Selectors.from_snapshot(state)
    state["n_features"] = state["ofs_b"] = 64
    state["mask_active"], state["mask_scores"] = [1.0] * 64, [1.0 / 64] * 64
    assert Selectors.from_snapshot(state).n_features == 64
