"""Scene model, loader round-trips, materials, look_at."""

import json
import math

import numpy as np
import pytest

from conftest import ground_scene
from emtrace.autodiff import Tape
from emtrace.geometry import VACUUM_PERMITTIVITY, rotation_from_ypr
from emtrace.scene import (AntennaArray, RadioDevice, RadioMaterial,
                           SceneError, SceneObject, bundled_scene, load_scene,
                           look_at, material_eval, scene_to_dict, write_scene)

MINIMAL = {
    "frequency_hz": 1e9,
    "materials": [{"name": "concrete", "model": "power_law",
                   "params": {"a": 5.24, "b": 0.0, "c": 0.0462, "d": 0.7822}}],
    "objects": [{"name": "ground", "material": "concrete",
                 "vertices_m": [-5, -5, 0, 5, -5, 0, 5, 5, 0, -5, 5, 0],
                 "triangles": [0, 1, 2, 0, 2, 3]}],
    "tx_array": {"pattern": "iso", "polarization": "V"},
    "rx_array": {"pattern": "iso", "polarization": "V"},
    "devices": [
        {"kind": "tx", "name": "tx", "position_m": [0, 0, 10]},
        {"kind": "rx", "name": "rx", "position_m": [20, 0, 1.5]},
    ],
}


def write_minimal(tmp_path, patch=None, name="mini.scene"):
    data = json.loads(json.dumps(MINIMAL))
    if patch:
        patch(data)
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestLoader:
    def test_minimal_scene(self, tmp_path):
        sc = load_scene(write_minimal(tmp_path))
        assert len(sc.objects) == 1
        assert len(sc.objects[0].triangles) == 2
        assert len(sc.devices) == 2
        assert sc.frequency_hz == 1e9

    def test_undefined_material_named_in_error(self, tmp_path):
        def patch(d):
            d["objects"][0]["material"] = "granite"
        with pytest.raises(SceneError, match="granite"):
            load_scene(write_minimal(tmp_path, patch))

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "broken.scene"
        p.write_text('{"frequency_hz": 1e9,\n  "objects": [}')
        with pytest.raises(SceneError, match=r"broken\.scene:2"):
            load_scene(str(p))

    def test_missing_file(self):
        with pytest.raises(SceneError, match="no/such/file"):
            load_scene("no/such/file.scene")

    def test_bad_triangle_index_rejected(self, tmp_path):
        def patch(d):
            d["objects"][0]["triangles"] = [0, 1, 99]
        with pytest.raises(SceneError, match="ground"):
            load_scene(write_minimal(tmp_path, patch))

    def test_non_finite_vertex_rejected(self):
        obj = SceneObject("bad", "m", np.array([[0, 0, np.nan], [1, 0, 0], [0, 1, 0]]),
                          np.array([[0, 1, 2]]))
        with pytest.raises(SceneError, match="bad"):
            obj.validate()

    def test_degenerate_triangle_rejected(self):
        obj = SceneObject("flat", "m", np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                          np.array([[0, 1, 2]]))
        with pytest.raises(SceneError, match="degenerate"):
            obj.validate()

    def test_duplicate_device_name_rejected(self, tmp_path):
        def patch(d):
            d["devices"].append({"kind": "rx", "name": "rx", "position_m": [1, 1, 1]})
        with pytest.raises(SceneError, match="duplicate"):
            load_scene(write_minimal(tmp_path, patch))

    def test_obj_mesh_subset(self, tmp_path):
        (tmp_path / "tri.obj").write_text(
            "# comment\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        def patch(d):
            d["objects"][0] = {"name": "mesh", "material": "concrete",
                               "mesh_file": "tri.obj"}
        sc = load_scene(write_minimal(tmp_path, patch))
        assert len(sc.objects[0].triangles) == 2  # quad fan-triangulated

    @pytest.mark.parametrize("match, text", [
        ("mesh.obj:2: malformed vertex record", "v 0 0 0\nv 1 0\n"),
        ("mesh.obj:4: face needs >= 3 vertices", "v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2\n"),
        ("bad vertex/triangle shapes", "# no records\n"),
    ])
    def test_malformed_obj_mesh_named(self, tmp_path, match, text):
        (tmp_path / "mesh.obj").write_text(text)
        def patch(d):
            d["objects"][0] = {"name": "mesh", "material": "concrete",
                               "mesh_file": "mesh.obj"}
        with pytest.raises(SceneError, match=match):
            load_scene(write_minimal(tmp_path, patch))

    def test_power_law_roundtrip(self, tmp_path):
        src = load_scene(write_minimal(tmp_path))
        out = str(tmp_path / "copy.scene")
        write_scene(src, out)
        assert scene_to_dict(load_scene(out)) == scene_to_dict(src)
        assert load_scene(out).materials["concrete"].coeffs == (5.24, 0.0, 0.0462, 0.7822)

    def test_unknown_bundled_scene(self):
        with pytest.raises(SceneError, match="no bundled scene named 'atlantis'"):
            bundled_scene("atlantis")

    def test_roundtrip_equivalence(self, tmp_path):
        src = load_scene(bundled_scene("two_ray"))
        out = str(tmp_path / "copy.scene")
        write_scene(src, out)
        dup = load_scene(out)
        assert scene_to_dict(dup) == scene_to_dict(src)

    def test_bundled_two_ray_loads(self):
        sc = load_scene(bundled_scene("two_ray"))
        assert {d.kind for d in sc.devices} == {"tx", "rx"}
        assert sc.materials["ground"].eps_r == 15.0


class TestMaterials:
    def test_vacuum_eta_is_one(self):
        m = RadioMaterial("vac", "constant", eps_r=1.0, sigma=0.0)
        ev = material_eval(m, 3.5e9)
        assert ev.eta.to_complex() == 1.0 + 0.0j

    def test_power_law_concrete_at_3p5ghz(self):
        # ITU-style coefficients: eps = a * f^b, sigma = c * f^d, f in GHz
        m = RadioMaterial("concrete", "power_law", coeffs=(5.24, 0.0, 0.0462, 0.7822))
        ev = material_eval(m, 3.5e9)
        assert ev.eps_r == pytest.approx(5.24, rel=1e-12)
        assert ev.sigma == pytest.approx(0.0462 * 3.5 ** 0.7822, rel=1e-12)

    def test_eta_formula(self):
        m = RadioMaterial("g", "constant", eps_r=15.0, sigma=0.015)
        f = 1e9
        ev = material_eval(m, f)
        expected = 15.0 - 1j * 0.015 / (2 * math.pi * f * VACUUM_PERMITTIVITY)
        assert ev.eta.to_complex() == pytest.approx(expected, rel=1e-12)

    def test_trainable_override_leaves(self):
        # the default trainable starting point: eps 3.0, sigma 0.1
        m = RadioMaterial("t", "constant", eps_r=3.0, sigma=0.1, trainable=True)
        tape = Tape()
        eps = tape.leaf(3.0, "eps")
        sig = tape.leaf(0.1, "sig")
        ev = material_eval(m, 1e9, eps_override=eps, sigma_override=sig)
        assert tape.gradient(ev.eps_r)["eps"] == 1.0
        assert tape.gradient(ev.eta.re)["eps"] == 1.0

    def test_override_matches_plain_eval(self):
        m = RadioMaterial("t", "constant", eps_r=4.5, sigma=0.2)
        plain = material_eval(m, 2e9)
        tape = Tape()
        ov = material_eval(m, 2e9, eps_override=tape.leaf(4.5, "e"),
                           sigma_override=tape.leaf(0.2, "s"))
        assert ov.eta.to_complex() == plain.eta.to_complex()

    def test_sigma_monotone_in_frequency_for_positive_d(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            a = rng.uniform(1, 10)
            b = rng.uniform(-0.2, 0.2)
            c = rng.uniform(0.001, 1.0)
            d = rng.uniform(0.01, 1.5)
            m = RadioMaterial("x", "power_law", coeffs=(a, b, c, d))
            f1, f2 = sorted(rng.uniform(0.5e9, 100e9, 2))
            if f1 == f2:
                continue
            assert material_eval(m, f1).sigma <= material_eval(m, f2).sigma

    def test_material_invariants(self):
        with pytest.raises(SceneError):
            RadioMaterial("bad", "constant", eps_r=0.5).validate()
        with pytest.raises(SceneError):
            RadioMaterial("bad", "constant", sigma=-1.0).validate()
        with pytest.raises(SceneError):
            RadioMaterial("bad", "power_law", coeffs=(1, 2, 3, 4), trainable=True).validate()
        with pytest.raises(SceneError, match="unknown model"):
            RadioMaterial("bad", "tabulated").validate()
        with pytest.raises(SceneError, match="coeffs"):
            RadioMaterial("bad", "power_law", coeffs=(1, 2, 3)).validate()


class TestArrays:
    def test_element_count(self):
        a = AntennaArray(num_rows=8, num_cols=2, polarization="VH")
        assert a.num_elements == 32
        assert AntennaArray(num_rows=8, num_cols=2, polarization="V").num_elements == 16

    def test_layout_centered_and_spaced(self):
        a = AntennaArray(num_rows=8, num_cols=2, vertical_spacing=0.7,
                         horizontal_spacing=0.5)
        lam = 0.3
        off, slants = a.element_layout(lam)
        assert np.allclose(off.mean(axis=0), 0.0, atol=1e-15)
        assert np.all(off[:, 0] == 0.0)  # y-z plane
        zs = np.unique(off[:, 2])
        assert np.allclose(np.diff(zs), 0.7 * lam)
        ys = np.unique(off[:, 1])
        assert np.allclose(np.diff(ys), 0.5 * lam)

    def test_cross_polarization_slants(self):
        a = AntennaArray(polarization="cross")
        assert a.slants == (math.pi / 4, -math.pi / 4)

    def test_invalid_spacing(self):
        with pytest.raises(SceneError):
            AntennaArray(vertical_spacing=0.0).validate()


class TestLookAt:
    def test_straight_ahead(self):
        d = RadioDevice("tx", "t", np.zeros(3))
        assert look_at(d, [1, 0, 0]) == (0.0, 0.0, 0.0)

    def test_yaw_quarter_turn(self):
        d = RadioDevice("tx", "t", np.zeros(3))
        y, p, r = look_at(d, [0, 1, 0])
        assert y == pytest.approx(math.pi / 2)
        assert p == 0.0 and r == 0.0

    def test_straight_up_pitch(self):
        d = RadioDevice("tx", "t", np.zeros(3))
        y, p, r = look_at(d, [0, 0, 1])
        assert p == pytest.approx(-math.pi / 2)

    def test_boresight_lands_on_target(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            pos, target = rng.randn(3), rng.randn(3)
            if np.linalg.norm(target - pos) < 1e-6:
                continue
            d = RadioDevice("tx", "t", pos)
            look_at(d, target)
            bore = rotation_from_ypr(*d.orientation) @ np.array([1.0, 0, 0])
            want = (target - pos) / np.linalg.norm(target - pos)
            assert np.allclose(bore, want, atol=1e-12)

    def test_coincident_target_rejected(self):
        d = RadioDevice("tx", "t", np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SceneError):
            look_at(d, [1.0, 2.0, 3.0])


def test_scene_helpers():
    sc = ground_scene()
    assert [d.name for d in sc.transmitters] == ["tx"]
    assert [d.name for d in sc.receivers] == ["rx"]
    assert sc.device("tx").kind == "tx"
    with pytest.raises(SceneError):
        sc.device("nope")
    assert sc.wavelength == pytest.approx(0.299792458)
