"""CLI subcommands: outputs, exit codes, determinism, flag documentation."""

import json
import os

import numpy as np
import pytest

from emtrace import cli
from emtrace.channel import CoverageMap
from emtrace.optim import Dataset
from emtrace.render import render_paths, write_png
from emtrace.scene import bundled_scene
from emtrace.tracer import compute_paths


def run(argv):
    return cli.main(argv)


def without_transmitter(tmp_path, name) -> str:
    """A copy of a bundled scene with its transmitters removed; its path."""
    data = json.load(open(bundled_scene(name)))
    data["devices"] = [d for d in data["devices"] if d["kind"] != "tx"]
    path = tmp_path / f"{name}-no-tx.scene"
    path.write_text(json.dumps(data))
    return str(path)


class TestTrace:
    def test_two_ray_writes_two_records(self, tmp_path, capsys):
        out = str(tmp_path / "paths.txt")
        assert run(["trace", "--scene", bundled_scene("two_ray"),
                    "--max-depth", "1", "--out", out]) == 0
        lines = [l for l in open(out).read().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 2
        kinds = [l.split()[2] for l in lines]
        assert kinds == ["los", "specular"]

    def test_normalize_delays_flag(self, tmp_path):
        out = str(tmp_path / "paths.txt")
        assert run(["trace", "--scene", bundled_scene("two_ray"),
                    "--max-depth", "1", "--normalize-delays", "--out", out]) == 0
        lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
        delays = [float(l.split()[5]) for l in lines]
        assert delays[0] == 0.0 and delays[1] > 0.0

    def test_png_overlay(self, tmp_path):
        out = str(tmp_path / "paths.txt")
        png = str(tmp_path / "paths.png")
        assert run(["trace", "--scene", bundled_scene("two_ray"),
                    "--max-depth", "1", "--out", out, "--png", png]) == 0
        data = open(png, "rb").read()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"

    def test_missing_scene_exit_1(self, tmp_path, capsys):
        rc = run(["trace", "--scene", "missing_dir/nope.scene",
                  "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "nope.scene" in capsys.readouterr().err

    def test_bad_flag_exit_1(self, tmp_path, capsys):
        rc = run(["coverage", "--scene", bundled_scene("free_space"),
                  "--grid", "bogus", "--cell", "5",
                  "--out", str(tmp_path / "c.bin")])
        assert rc == 1

    @pytest.mark.parametrize("field, edit", [
        ("frequency_hz", lambda d: d.update(frequency_hz=float("nan"))),
        ("position_m", lambda d: d["devices"][0].update(position_m=[0.0, 0.0])),
        ("velocity_mps", lambda d: d["devices"][1].update(velocity_mps=[1.0, 2.0])),
        pytest.param("orientation_rad", lambda d: d["devices"][0].update(
            orientation_rad=[0.0, 0.1]), id="orientation_rad-2-values"),
        pytest.param("orientation_rad", lambda d: d["devices"][0].update(
            orientation_rad=[float("nan"), 0.0, 0.0]), id="orientation_rad-nan"),
        pytest.param("velocity_mps", lambda d: d["devices"][1].update(
            velocity_mps=[0.0, float("nan"), 0.0]), id="velocity_mps-nan"),
        pytest.param("vertical_spacing", lambda d: d["tx_array"].update(
            vertical_spacing=float("nan")), id="vertical_spacing-nan"),
        pytest.param("triangles", lambda d: d["objects"][0].update(
            triangles=[0, 1, 2.5, 0, 2, 3]), id="triangles-fraction"),
        pytest.param("num_rows", lambda d: d["tx_array"].update(num_rows="two"),
                     id="num_rows-text"),
        pytest.param("eps_r", lambda d: d["materials"][0]["params"].update(eps_r="abc"),
                     id="eps_r-text"),
        pytest.param("synthetic_array", lambda d: d.update(synthetic_array="false"),
                     id="synthetic_array-text"),
        pytest.param("trainable", lambda d: d["materials"][0].update(trainable="no"),
                     id="trainable-text"),
        pytest.param("trainable", lambda d: d["materials"][0].update(trainable=1),
                     id="trainable-number"),
        pytest.param("frequency_hz", lambda d: d.pop("frequency_hz"), id="frequency_hz-missing"),
        pytest.param("without a name", lambda d: d["materials"][0].pop("name"),
                     id="name-missing"),
        pytest.param("unknown model 'magic'", lambda d: d["materials"][0].update(model="magic"),
                     id="model-unknown"),
        pytest.param("coefficient 'c'", lambda d: d["materials"][0].update(
            model="power_law", params={"a": 5.0, "b": 0.0, "d": 0.5}), id="power_law-missing-c"),
        pytest.param("vertices_m", lambda d: d["objects"][0].update(vertices_m=["a"] * 12),
                     id="vertices_m-text"),
        pytest.param("vertices_m", lambda d: d["objects"][0].update(vertices_m=[0.0] * 10),
                     id="vertices_m-not-triplets"),
        pytest.param("num_rows", lambda d: d["tx_array"].update(num_rows=1.5),
                     id="num_rows-fraction"),
        pytest.param("num_cols", lambda d: d["rx_array"].update(num_cols=0), id="num_cols-0"),
        pytest.param("pattern 'horn'", lambda d: d["tx_array"].update(pattern="horn"),
                     id="pattern-unknown"),
        pytest.param("polarization 'L'", lambda d: d["rx_array"].update(polarization="L"),
                     id="polarization-unknown"),
        pytest.param("kind", lambda d: d["devices"][1].update(kind="relay"), id="kind-unknown"),
    ])
    def test_malformed_scene_field_exit_1(self, tmp_path, capsys, field, edit):
        data = json.load(open(bundled_scene("two_ray")))
        edit(data)
        scene = tmp_path / "bad.scene"
        scene.write_text(json.dumps(data))
        rc = run(["trace", "--scene", str(scene), "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert field in capsys.readouterr().err

    def test_non_numeric_obj_vertex_exit_1(self, tmp_path, capsys):
        (tmp_path / "ground.obj").write_text(
            "v -100 -100 0\nv 100 -100 0\nv x 100 0\nf 1 2 3\n")
        data = json.load(open(bundled_scene("two_ray")))
        data["objects"] = [{"name": "ground", "material": "ground",
                            "mesh_file": "ground.obj"}]
        scene = tmp_path / "mesh.scene"
        scene.write_text(json.dumps(data))
        rc = run(["trace", "--scene", str(scene), "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "ground.obj:3: vertex coordinate" in capsys.readouterr().err

    def test_internal_error_exit_2(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("invariant violated")
        monkeypatch.setattr(cli, "compute_paths", boom)
        rc = run(["trace", "--scene", bundled_scene("two_ray"),
                  "--out", str(tmp_path / "x.txt")])
        assert rc == 2


class TestCoverage:
    def test_outputs_and_header(self, tmp_path):
        out = str(tmp_path / "cm.bin")
        png = str(tmp_path / "cm.png")
        assert run(["coverage", "--scene", bundled_scene("free_space"),
                    "--max-depth", "1", "--grid", "10x10", "--cell", "5",
                    "--height", "1.5", "--center", "50,0",
                    "--out", out, "--png", png]) == 0
        cm = CoverageMap.load_binary(out)
        assert (cm.grid.nx, cm.grid.ny) == (10, 10)
        assert cm.grid.cell_size == 5.0
        assert cm.grid.height == 1.5
        assert cm.grid.origin == (50 - 25.0, -25.0)
        assert os.path.exists(png)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["coverage", "--scene", bundled_scene("two_ray"),
                "--max-depth", "1", "--grid", "4x3", "--cell", "10",
                "--center", "60,0"]
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"cm_{tag}.bin")
            png = str(tmp_path / f"cm_{tag}.png")
            assert run(args + ["--out", out, "--png", png]) == 0
            outs.append((open(out, "rb").read(), open(png, "rb").read()))
        assert outs[0] == outs[1]


    def test_tx_mode_array(self, tmp_path):
        out = str(tmp_path / "cm.bin")
        assert run(["coverage", "--scene", bundled_scene("orient"),
                    "--max-depth", "1", "--grid", "2x2", "--cell", "5",
                    "--tx-mode", "array", "--out", out]) == 0
        cm = CoverageMap.load_binary(out)
        assert (cm.gains > 0).all()


    def test_default_center_is_the_scene_bounding_box_center(self, tmp_path):
        from emtrace.scene import load_scene
        out = str(tmp_path / "cm.bin")
        assert run(["coverage", "--scene", bundled_scene("box"), "--max-depth", "0",
                    "--grid", "2x4", "--cell", "1.5", "--out", out]) == 0
        scene = load_scene(bundled_scene("box"))
        pts = np.vstack([d.position for d in scene.devices]
                        + [o.vertices for o in scene.objects])[:, :2]
        cx, cy = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
        assert CoverageMap.load_binary(out).grid.origin == (cx - 1.5, cy - 3.0)

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "0x3", "grid dimensions must be positive"),
        ("--grid", "3x-1", "grid dimensions must be positive"),
        ("--center", "1", "center must look like X,Y"),
        ("--center", "1,north", "center must look like X,Y"),
        ("--cell", "0", "cell_size must"), ("--cell", "-5", "cell_size must"),
        ("--cell", "nan", "cell_size must"), ("--cell", "inf", "cell_size must"),
        ("--center", "nan,0", "origin must"), ("--center", "0,inf", "origin must"),
        ("--height", "nan", "height must"), ("--height", "-inf", "height must"),
        ("--max-depth", "-1", "max_depth must"),
        ("--num-rays", "0", "num_rays"),
    ])
    def test_bad_grid_or_tracing_flag_exit_1(self, tmp_path, capsys, flag, value, message):
        args = {"--grid": "2x2", "--cell": "5", "--center": "0,0", "--height": "1.5",
                "--max-depth": "1", "--num-rays": "64", flag: value}
        out = tmp_path / "cm.bin"
        rc = run(["coverage", "--scene", bundled_scene("two_ray"), "--method", "fibonacci",
                  "--out", str(out)] + [f"{k}={v}" for k, v in args.items()])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

class TestGenDataset:
    def test_writes_loadable_dataset(self, tmp_path):
        out = str(tmp_path / "d.json")
        assert run(["gen-dataset", "--scene", bundled_scene("calib_truth"),
                    "--max-depth", "1", "--subcarriers", "16",
                    "--spacing", "30e3", "--out", out]) == 0
        ds = Dataset.load(out)
        assert len(ds.records) == 25
        assert ds.records[0].h.shape == (16,)


    @pytest.mark.parametrize("flag, value, message", [
        ("--spacing", "nan", "spacing must"), ("--spacing", "inf", "spacing must"),
        ("--spacing", "0", "spacing must"), ("--spacing", "-30e3", "spacing must"),
        ("--subcarriers", "0", "at least one subcarrier"),
    ])
    def test_bad_subcarrier_grid_exit_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "d.json"
        rc = run(["gen-dataset", "--scene", bundled_scene("calib_truth"),
                  "--max-depth", "1", f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMaxDepth:
    @pytest.mark.parametrize("command", ["trace", "coverage", "gen-dataset",
                                         "calibrate", "orient"])
    def test_negative_max_depth_exit_1(self, tmp_path, capsys, command):
        extra = {"trace": ["--scene", bundled_scene("two_ray")],
                 "coverage": ["--scene", bundled_scene("two_ray"), "--grid", "2x2",
                              "--cell", "5"],
                 "gen-dataset": ["--scene", bundled_scene("calib_truth")],
                 "calibrate": ["--scene", bundled_scene("calib_init"), "--dataset",
                               str(tmp_path / "d.json"), "--log", str(tmp_path / "l.csv")],
                 "orient": ["--scene", bundled_scene("orient"), "--grid", "1x1",
                            "--cell", "5", "--log", str(tmp_path / "l.csv")]}[command]
        if command == "calibrate":
            assert run(["gen-dataset", "--scene", bundled_scene("calib_truth"),
                        "--max-depth", "1", "--subcarriers", "8",
                        "--out", str(tmp_path / "d.json")]) == 0
        rc = run([command, "--max-depth", "-1", "--out", str(tmp_path / "out")] + extra)
        assert rc == 1
        assert "max_depth must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCalibrate:
    def test_determinism_byte_identical(self, tmp_path):
        ds_path = str(tmp_path / "d.json")
        assert run(["gen-dataset", "--scene", bundled_scene("calib_truth"),
                    "--max-depth", "1", "--subcarriers", "32",
                    "--spacing", "30e3", "--out", ds_path]) == 0
        blobs = []
        for tag in ("a", "b"):
            log = str(tmp_path / f"log_{tag}.csv")
            out = str(tmp_path / f"mat_{tag}.json")
            assert run(["calibrate", "--scene", bundled_scene("calib_init"),
                        "--dataset", ds_path, "--max-depth", "1",
                        "--iterations", "8", "--log", log, "--out", out]) == 0
            blobs.append((open(log, "rb").read(), open(out, "rb").read()))
        assert blobs[0] == blobs[1]
        head = blobs[0][0].decode().splitlines()[0]
        assert head.startswith("iteration,loss,")

    def test_empty_dataset_exit_1(self, tmp_path, capsys):
        ds_path = tmp_path / "empty.json"
        ds_path.write_text(json.dumps({"frequency_hz": 3.5e9, "num_subcarriers": 8,
                                       "subcarrier_spacing_hz": 30e3, "records": []}))
        rc = run(["calibrate", "--scene", bundled_scene("calib_init"),
                  "--dataset", str(ds_path), "--out", str(tmp_path / "c.json"),
                  "--log", str(tmp_path / "l.txt")])
        assert rc == 1
        assert "records" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ds") / "d.json")
        assert run(["gen-dataset", "--scene", bundled_scene("calib_truth"),
                    "--max-depth", "1", "--subcarriers", "8", "--out", path]) == 0
        return json.load(open(path))

    @pytest.mark.parametrize("field, edit", [
        pytest.param("frequency_hz", lambda d: d.pop("frequency_hz"),
                     id="frequency_hz-missing"),
        pytest.param("frequency_hz", lambda d: d.update(frequency_hz=float("nan")),
                     id="frequency_hz-nan"),
        pytest.param("h_im", lambda d: d["records"][3].update(
            h_im=d["records"][3]["h_im"][:-1]), id="h_im-short"),
        pytest.param("position_m", lambda d: d["records"][0].update(
            position_m=[1.0, 2.0]), id="position_m-2-values"),
    ])
    def test_malformed_dataset_exit_1(self, tmp_path, capsys, dataset, field, edit):
        data = json.loads(json.dumps(dataset))
        edit(data)
        ds_path = tmp_path / "bad.json"
        ds_path.write_text(json.dumps(data))
        rc = run(["calibrate", "--scene", bundled_scene("calib_init"),
                  "--dataset", str(ds_path), "--max-depth", "1", "--iterations", "2",
                  "--log", str(tmp_path / "l.csv")])
        assert rc == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--iterations", "0", "iterations"), ("--iterations", "-2", "iterations"),
        ("--lr", "nan", "lr"), ("--lr", "inf", "lr"), ("--lr", "-1", "lr"),
    ])
    def test_bad_optimiser_flag_exit_1(self, tmp_path, capsys, dataset, flag, value, field):
        ds_path = tmp_path / "d.json"
        ds_path.write_text(json.dumps(dataset))
        rc = run(["calibrate", "--scene", bundled_scene("calib_init"),
                  "--dataset", str(ds_path), "--max-depth", "1", flag, value,
                  "--log", str(tmp_path / "l.csv")])
        assert rc == 1
        assert f"{field} must" in capsys.readouterr().err

    def test_scene_without_transmitter_exit_1(self, tmp_path, capsys, dataset):
        ds_path = tmp_path / "d.json"
        ds_path.write_text(json.dumps(dataset))
        rc = run(["calibrate", "--scene", without_transmitter(tmp_path, "calib_init"),
                  "--dataset", str(ds_path), "--max-depth", "1", "--iterations", "2",
                  "--log", str(tmp_path / "l.csv")])
        assert rc == 1
        assert "scene has no transmitter" in capsys.readouterr().err

    def test_truncated_dataset_exit_1(self, tmp_path, capsys):
        ds_path = tmp_path / "cut.json"
        ds_path.write_text('{"frequency_hz": 3')
        rc = run(["calibrate", "--scene", bundled_scene("calib_init"),
                  "--dataset", str(ds_path), "--log", str(tmp_path / "l.csv")])
        assert rc == 1
        assert "cut.json" in capsys.readouterr().err


class TestOrient:
    def test_runs_and_logs(self, tmp_path):
        log = str(tmp_path / "orient.csv")
        out = str(tmp_path / "ypr.json")
        assert run(["orient", "--scene", bundled_scene("orient"),
                    "--max-depth", "1", "--grid", "1x1", "--cell", "5",
                    "--height", "50", "--center", "70.71067811865476,50",
                    "--iterations", "40", "--log", log, "--out", out]) == 0
        rows = open(log).read().strip().splitlines()
        assert rows[0] == "iteration,loss,dev:tx:yaw,dev:tx:pitch,dev:tx:roll"
        assert len(rows) >= 3
        ypr = json.load(open(out))
        assert set(ypr) == {"dev:tx:pitch", "dev:tx:roll", "dev:tx:yaw"}

    def test_scene_without_transmitter_exit_1(self, tmp_path, capsys):
        rc = run(["orient", "--scene", without_transmitter(tmp_path, "orient"),
                  "--max-depth", "1", "--grid", "1x1", "--cell", "5",
                  "--log", str(tmp_path / "orient.csv")])
        assert rc == 1
        assert "scene has no transmitter" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--iterations", "0", "iterations"), ("--lr", "nan", "lr_angle"),
        ("--lr", "-0.5", "lr_angle"),
    ])
    def test_bad_optimiser_flag_exit_1(self, tmp_path, capsys, flag, value, field):
        rc = run(["orient", "--scene", bundled_scene("orient"), "--max-depth", "1",
                  "--grid", "1x1", "--cell", "5", flag, value,
                  "--log", str(tmp_path / "orient.csv")])
        assert rc == 1
        assert f"{field} must" in capsys.readouterr().err


class TestHelpDocumentation:
    def test_every_flag_documented_and_parsed(self):
        parser = cli.build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name, sp in subs.choices.items():
            text = sp.format_help()
            for action in sp._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name}: {opt} missing from --help"
                assert action.help, f"{name}: {action.option_strings} lacks help text"

    def test_mandated_flag_names_exist(self):
        parser = cli.build_parser()
        subs = parser._subparsers._group_actions[0].choices
        all_flags = {opt for sp in subs.values() for a in sp._actions
                     for opt in a.option_strings}
        for flag in ["--scene", "--max-depth", "--method", "--num-rays",
                     "--grid", "--cell", "--height", "--subcarriers",
                     "--spacing", "--lr", "--iterations", "--out", "--png",
                     "--log"]:
            assert flag in all_flags


class TestRender:
    def test_uniform_map_single_color(self, tmp_path):
        from emtrace.channel import GridSpec
        from emtrace.render import render_coverage
        cm = CoverageMap(grid=GridSpec(origin=(0, 0), cell_size=1, nx=4, ny=4),
                         gains=np.full((4, 4), 1e-7), frequency_hz=1e9)
        img = render_coverage(cm)
        assert (img == img[0, 0]).all()

    def test_zero_cell_gets_floor_color(self):
        from emtrace.channel import GridSpec
        from emtrace.render import render_coverage, _RAMP
        gains = np.full((2, 2), 1e-7)
        gains[0, 0] = 0.0
        cm = CoverageMap(grid=GridSpec(origin=(0, 0), cell_size=1, nx=2, ny=2),
                         gains=gains, frequency_hz=1e9)
        img = render_coverage(cm)
        assert img.shape == (256, 256, 3)
        # grid row 0 renders at the image bottom
        assert np.array_equal(img[-1, 0], _RAMP[0])
        assert not np.array_equal(img[0, 0], _RAMP[0])

    def test_map_at_the_floor_gets_the_floor_color(self):
        from emtrace.render import _RAMP, colorize
        assert (colorize(np.full((2, 3), -150.0)) == _RAMP[0]).all()

    def test_two_ray_overlay_draws_two_polylines(self, two_ray_scene, two_ray_bvh):
        from emtrace.render import _PATH_COLORS
        from emtrace.tracer import PathSet
        ps = compute_paths(two_ray_scene, two_ray_bvh, 1)
        assert [len(p.vertices) for p in ps.paths] == [2, 3]
        img = render_paths(ps)
        px = img.reshape(-1, 3)
        # both polylines project onto the same ground line; the later one
        # overdraws it, so only its color is guaranteed visible
        assert (px == np.array(_PATH_COLORS[1], dtype=np.uint8)).all(axis=1).any()
        tx, rx, paths = ps.links[0]
        solo = render_paths(PathSet(ps.scene, 1, ps.method, [(tx, rx, paths[:1])]))
        assert (solo.reshape(-1, 3) ==
                np.array(_PATH_COLORS[0], dtype=np.uint8)).all(axis=1).any()

    def test_png_bytes_deterministic(self, tmp_path):
        rng = np.random.RandomState(0)
        img = rng.randint(0, 255, (20, 30, 3), dtype=np.uint8)
        p1, p2 = str(tmp_path / "a.png"), str(tmp_path / "b.png")
        write_png(p1, img)
        write_png(p2, img)
        assert open(p1, "rb").read() == open(p2, "rb").read()
