import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rieszlab
from rieszlab.cli import (_SURFACES, RunConfig, dump_json, main, parse_args,
                         parse_surface, run)
from rieszlab.errors import ConfigError, UnsupportedInputError
from rieszlab.geometry import Surface, TriMesh

# the child process imports the same rieszlab as the tests, installed or not
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(rieszlab.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")]))}


def _run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "rieszlab", *args],
                          capture_output=True, text=True, env=_CHILD_ENV)
    return proc


def test_beta_command():
    proc = _run_cli(["beta", "--surface", "circle", "--z", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["value"] == pytest.approx(16 * math.pi, rel=1e-12)


def test_model_orthogonal_command():
    proc = _run_cli(["model", "orthogonal", "--alpha", "-3", "--rho", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["result"]["value"] == pytest.approx(23.1259, rel=1e-4)


def test_energy_command_circle():
    proc = _run_cli(["energy", "--surface", "circle:r=1", "--alpha", "1"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["report"]["value"] == pytest.approx(16 * math.pi, rel=1e-6)


def test_energy_command_sphere_regularized():
    proc = _run_cli(["energy", "--surface", "sphere:r=1", "--alpha", "-4",
                     "--outer-scale", "0.12", "--inner-scale", "0.5"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["report"]["value"] == pytest.approx(-math.pi ** 2, rel=0.01)


def test_unknown_surface_exits_2():
    proc = _run_cli(["energy", "--surface", "klein-bottle", "--alpha", "1"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"


def test_unsupported_input_exits_4():
    cfg = RunConfig(command="flow", surface="sphere:r=1", energy="ks")
    assert run(cfg) == 4


def test_ks_immersed_dumbbell_exits_4(capsys):
    assert main(["energy", "--surface", "dumbbell:gap=0.001", "--energy",
                 "ks"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedInputError"
    assert ("non-neighbor separation 0.001 vs local scale 0.594"
            in err["message"])


def test_missing_command_exits_2():
    assert main([]) == 2


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["sweep", "--m", "2", "--alpha", "-5", "--gaps", "0.1,0.05,0.025"]
    p1 = _run_cli(args + ["-o", str(out1), "--csv", str(tmp_path / "a.csv")])
    p2 = _run_cli(args + ["-o", str(out2), "--csv", str(tmp_path / "b.csv")])
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_csv_and_data(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    dat_path = tmp_path / "sweep.dat"
    proc = _run_cli(["sweep", "--m", "2", "--alpha", "-5",
                     "--gaps", "0.1,0.05,0.025",
                     "--csv", str(csv_path), "--data", str(dat_path)])
    assert proc.returncode == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "alpha,delta,energy,lambda_bound_sum"
    assert len(rows) == 4
    dat = dat_path.read_text().strip().splitlines()
    assert len(dat) == 3 and len(dat[0].split()) == 2


@pytest.mark.parametrize("argv", [
    ["energy", "--surface", "circle", "--alpha", "1"],
    ["beta", "--surface", "circle", "--z", "1"],
    ["model", "cone", "--alpha", "-5"],
    ["flow", "--surface", "icosphere", "--energy", "ks", "--steps", "1"],
    ["invariance", "--surface", "sphere"],
    ["validate", "--surface", "sphere"],
], ids=lambda argv: argv[0])
def test_data_flag_only_where_it_writes(argv, tmp_path, capsys):
    # only sweep writes a data file; elsewhere the flag and the config
    # file's "data" key are refused
    dat_path = tmp_path / "out.dat"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(dat_path)}))
    for extra in (["--data", str(dat_path)], ["--config", str(cfg)]):
        assert main([*argv, *extra]) == 2
        assert not dat_path.exists()
        assert capsys.readouterr().out == ""


def test_flow_command(tmp_path):
    traj = tmp_path / "traj.csv"
    mesh_out = tmp_path / "final.off"
    proc = _run_cli(["flow", "--surface", "icosphere:subdiv=1", "--energy",
                     "ks", "--steps", "3", "--trajectory", str(traj),
                     "--mesh-out", str(mesh_out)])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["energy_final"] <= data["energy_initial"]
    assert traj.exists() and mesh_out.exists()


def test_validate_command():
    proc = _run_cli(["validate", "--surface", "sphere:r=1",
                     "--eps0", "0.1", "--b", "10", "--V", "20"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["report"]["passed"] is True
    proc2 = _run_cli(["validate", "--surface", "sphere:r=1",
                      "--eps0", "0.1", "--b", "10", "--V", "1"])
    data2 = json.loads(proc2.stdout)
    assert data2["report"]["passed"] is False
    assert data2["report"]["volume"] == pytest.approx(4 * math.pi, rel=1e-6)


def test_config_file_merging(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"surface": "circle", "z": 1.0}))
    proc = _run_cli(["--config", str(cfg_path), "beta", "--surface", "circle",
                     "--z", "-2"])
    # flags override the file
    data = json.loads(proc.stdout)
    assert data["z"] == -2.0
    assert data["value"] == pytest.approx(0.0, abs=1e-12)


def test_mesh_roundtrip_energy(tmp_path):
    from rieszlab.geometry import icosphere, write_off
    from rieszlab.flow import ks_flow_energy
    mesh = icosphere(1)
    path = tmp_path / "ico.off"
    write_off(mesh, path)
    back = parse_surface(str(path))
    assert isinstance(back, TriMesh)
    assert ks_flow_energy(back) == pytest.approx(ks_flow_energy(mesh),
                                                 abs=1e-12)


def test_dump_json_17_digits():
    text = dump_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


# ----------------------------------------------------------------------
# non-finite numeric input: exit 2 with a JSON error, never a traceback
# ----------------------------------------------------------------------

def _config_error(argv, capsys):
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    return code, err


def test_nan_surface_parameter_exits_2(capsys):
    code, err = _config_error(["energy", "--surface", "sphere:r=nan",
                               "--alpha", "-1"], capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert "sphere:r=nan" in err["message"]


def test_nan_alpha_flag_exits_2(capsys):
    code, err = _config_error(["energy", "--surface", "circle",
                               "--alpha", "nan"], capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert "alpha" in err["message"]


def test_infinite_beta_z_exits_2(capsys):
    code, err = _config_error(["beta", "--surface", "sphere", "--z", "inf"],
                              capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert "z" in err["message"]


def test_nan_model_alpha_exits_2(capsys):
    code, err = _config_error(["model", "cone", "--alpha", "nan"], capsys)
    assert code == 2 and err["error"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ["model", "tangent", "--alpha", "-4", "--extent", "0"],
    ["model", "tangent", "--alpha", "-4", "--extent", "-1"],
    ["model", "orthogonal", "--alpha", "-3", "--rho", "-1"],
])
def test_invalid_model_input_exits_3(argv, capsys):
    # a domain violation is a PreconditionError: exit 3, a JSON error on
    # stderr and no value on stdout
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


@pytest.mark.parametrize("argv, config, code", [
    pytest.param(["energy", "--surface", "sphere", "--alpha", "-4",
                  "--eps0", "0"], None, 2, id="eps0-zero"),
    pytest.param(["energy", "--surface", "sphere", "--alpha", "-4",
                  "--eps0", "-1"], None, 2, id="eps0-negative"),
    pytest.param(["validate", "--surface", "sphere", "--eps0", "0"], None, 2,
                 id="validate-eps0-zero"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5",
                  "--outer-scale", "0"], None, 2, id="outer-scale-zero"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5",
                  "--inner-scale", "-1"], None, 2, id="inner-scale-negative"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5"],
                 {"eps0": 0}, 2, id="config-eps0-zero"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5"],
                 {"inner_scale": 0}, 2, id="config-inner-scale-zero"),
    pytest.param(["energy", "--surface", "two-spheres:gap=0", "--alpha",
                  "-4"], None, 2, id="two-spheres-touch"),
    pytest.param(["energy", "--surface", "two-spheres:gap=-0.5", "--alpha",
                  "-4"], None, 2, id="two-spheres-overlap"),
    pytest.param(["energy", "--surface", "dumbbell:gap=0", "--alpha", "-2.5"],
                 None, 2, id="dumbbell-touch"),
    pytest.param(["invariance", "--surface", "circle", "--map",
                  "inversion:cx=3,cz=1"], None, 2, id="plane-curve-cz"),
    pytest.param(["energy", "--surface", "polygon:n=0", "--alpha", "-2.5"],
                 None, 2, id="polygon-no-faces"),
    pytest.param(["energy", "--surface", "circle"], {"alpha": "abc"}, 2,
                 id="config-alpha-string"),
    pytest.param(["energy", "--surface", "circle"], {"alpha": True}, 2,
                 id="config-alpha-bool"),
    pytest.param(["flow", "--surface", "icosphere:subdiv=1", "--energy",
                  "ks"], {"steps": "3"}, 2, id="config-steps-string"),
    pytest.param(["sweep", "--alpha", "-4"], {"gaps": ["a", 0.1, 0.05]}, 2,
                 id="config-gaps-string-item"),
    pytest.param(["flow", "--surface", "polygon:n=16", "--energy", "ks",
                  "--step-size", "-0.01"], None, 2,
                 id="flow-step-size-negative"),
    pytest.param(["flow", "--surface", "polygon:n=16", "--energy", "ks",
                  "--step-size", "0"], None, 2, id="flow-step-size-zero"),
    pytest.param(["flow", "--surface", "polygon:n=16", "--energy", "ks",
                  "--steps", "-3"], None, 2, id="flow-steps-negative"),
    pytest.param(["flow", "--surface", "polygon:n=16", "--energy", "ks"],
                 {"step_size": 0}, 2, id="config-step-size-zero"),
    pytest.param(["flow", "--surface", "polygon:n=16", "--energy", "ks"],
                 {"steps": -1}, 2, id="config-steps-negative"),
    pytest.param(["sweep", "--m", "1", "--alpha", "-2", "--radius", "-1",
                  "--gaps", "0.1"], None, 2, id="sweep-radius-negative"),
    pytest.param(["sweep", "--m", "1", "--alpha", "-2", "--radius", "0",
                  "--gaps", "0.1"], None, 2, id="sweep-radius-zero"),
    pytest.param(["sweep", "--m", "1", "--alpha", "-2", "--gaps",
                  "0.1,0.1,0.01"], None, 2, id="sweep-gaps-repeated"),
    pytest.param(["sweep", "--m", "1", "--alpha", "-2", "--gaps",
                  "0.1,-0.01"], None, 2, id="sweep-gap-negative"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5"], [1, 2],
                 2, id="config-not-an-object"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5",
                  "--threads", "0"], None, 2, id="threads-zero"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5",
                  "--threads", "-1"], None, 2, id="threads-negative"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5"],
                 {"threads": 0}, 2, id="config-threads-zero"),
    pytest.param(["energy", "--surface", "circle", "--alpha", "-2.5"],
                 {"threads": -1}, 2, id="config-threads-negative"),
])
def test_degenerate_input_exits_with_a_json_error(argv, config, code,
                                                  tmp_path, capsys):
    # non-positive radii, rule scales and thread counts, touching or
    # overlapping bodies, a map centre outside the surface's space, an
    # empty mesh and config values of the wrong type are refused before any
    # computation, from a flag or from the config file
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    err = json.loads(err)
    assert err["error"] == {2: "ConfigError", 4: "UnsupportedInputError"}[code]
    # a refused config-file value is named in the message
    for key in config if isinstance(config, dict) else ():
        assert key in err["message"]


def test_flow_of_zero_steps_evaluates_the_initial_state(capsys):
    # 0 steps is a valid budget, unlike a negative one
    assert main(["flow", "--surface", "polygon:n=16", "--energy", "ks",
                 "--steps", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["iterations"] == 0 and out["stationary"] is False
    assert out["energy_final"] == out["energy_initial"] > 0.0


def test_mesh_file_without_faces_exits_4(tmp_path, capsys):
    # an empty mesh is unsupported input (exit 4); polygon:n=0, which built
    # one, is now refused by its count as a ConfigError
    path = tmp_path / "empty.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    assert main(["energy", "--surface", str(path), "--alpha", "-2.5"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "UnsupportedInputError"


@pytest.mark.parametrize("suffix", [".off", ".obj"])
@pytest.mark.parametrize("argv", [
    ["energy", "--energy", "ks"], ["energy", "--alpha", "-2.5"],
    ["flow", "--energy", "ks", "--steps", "1"],
    ["validate", "--eps0", "0.1", "--b", "10", "--V", "20"]],
    ids=["ks", "riesz", "flow", "validate"])
def test_mesh_file_with_a_vertex_in_no_face_exits_4(suffix, argv, tmp_path,
                                                     capsys):
    # KS and Riesz exited 3 on a division by its zero weight, flow on its
    # empty ring, and validate exited 0 with a violation at every sample
    from rieszlab.geometry import icosphere, write_obj, write_off
    mesh, path = icosphere(1), tmp_path / f"stray{suffix}"
    (write_off if suffix == ".off" else write_obj)(mesh, path)
    lines = path.read_text().splitlines()
    if suffix == ".off":
        # vertex 42 after the 42 of the icosphere
        lines[1] = f"43 {mesh.num_faces} 0"
        lines.insert(44, "5 0 0")
    else:
        lines.append("v 5 0 0")
    path.write_text("\n".join(lines) + "\n")
    assert main([argv[0], "--surface", f"mesh:path={path}", *argv[1:]]) == 4
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == "" and err["error"] == "TopologyError"
    assert err["message"].endswith("vertex 42 is in no face")


@pytest.mark.parametrize("argv", [
    ["energy", "--energy", "ks"], ["energy", "--alpha", "-2.5"],
    ["flow", "--energy", "ks", "--steps", "1"],
    ["validate", "--eps0", "0.1", "--b", "10", "--V", "20"]],
    ids=["ks", "riesz", "flow", "validate"])
def test_tetrahedron_file_exits_4_naming_the_vertex(argv, tmp_path, capsys):
    # its 2-rings have 3 vertices, too few for the quadratic vertex fit;
    # it exited 3 as a NumericalError
    path = tmp_path / "tetrahedron.off"
    path.write_text("OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
                    "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n")
    assert main([argv[0], "--surface", f"mesh:path={path}", *argv[1:]]) == 4
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == "" and err["error"] == "UnsupportedInputError"
    assert err["message"] == ("vertex 0 has 3 vertices in its 2-ring, and "
                              "the quadratic fit needs 5")


def test_orthogonal_model_beyond_its_alpha_exits_4(capsys):
    # its box rule is 4e-8 off the closed form at alpha = 100
    assert main(["model", "orthogonal", "--alpha", "100"]) == 4
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == "" and err["error"] == "UnsupportedInputError"
    assert "alpha <= 40" in err["message"]


@pytest.mark.parametrize("spec,key", [
    ("sphere:r=-1", "r"), ("sphere:r=0", "r"), ("circle:r=-2", "r"),
    ("ellipsoid:a=-1", "a"), ("icosphere:subdiv=-1", "subdiv"),
    ("torus:R=1,r=2", "r"), ("torus:R=1,r=1", "r"), ("torus:R=-2", "R"),
    ("torusmesh:R=1,r=2", "r"), ("torusmesh:nu=2", "nu"),
    ("polygon:n=2", "n"), ("cylinder:L=0", "L"), ("saddle:extent=-1", "extent"),
    ("dumbbell:subdiv=-1", "subdiv"), ("two-spheres:r=-1", "r"),
])
def test_impossible_catalog_sizes_exit_2(spec, key, capsys):
    # a negative radius would run as the mirror image, a zero one or a
    # torus tube wider than its centre circle as a rank-deficient chart
    code, err = _config_error(["energy", "--surface", spec, "--alpha", "-4"],
                              capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert err["message"].startswith(f"{key} in {spec!r}")


@pytest.mark.parametrize("argv", [
    ["--surface", "sphere", "--alpha", "1e308"],
    ["--surface", "sphere", "--alpha", "1e308", "--threads", "2"],
    ["--surface", "sphere:r=1e200", "--alpha", "-4"],
    ["--surface", "sphere:r=1e200", "--energy", "ks"],
    ["--surface", "sphere:r=1e200", "--energy", "as"],
])
def test_non_finite_energy_exits_3(argv, capsys):
    # overflow is a NumericalError, not a NaN value with exit 0; with
    # RuntimeWarning an error, no numpy warning may escape either
    code = main(["energy", *argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    err = json.loads(err)
    assert err["error"] == "NumericalError"
    assert "not finite" in err["message"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--m", "1", "--alpha", "-3000"],
    ["sweep", "--m", "2", "--alpha", "-3000"],
    ["model", "tangent", "--alpha", "-3000"],
    ["model", "cone", "--alpha", "-3000"],
    ["model", "orthogonal", "--alpha", "-3000"],
])
def test_degeneration_overflow_exits_3(argv, capsys):
    # the m = 1 sweep printed numpy warnings and exited 0 with energies
    # Infinity; the models exited 3 on a misleading PreconditionError
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    err = json.loads(err)
    assert err["error"] == "NumericalError"
    assert "not finite" in err["message"]


def test_invariance_of_a_riesz_energy_exits_2(capsys):
    # it ran the KS check and ignored --alpha
    code, err = _config_error(["invariance", "--surface", "circle",
                               "--energy", "riesz", "--alpha", "-2.5"], capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert "ks or as" in err["message"]


@pytest.mark.parametrize("map_spec", [[], ["--map", "similarity:scale=2"]],
                         ids=["inversion", "similarity"])
@pytest.mark.parametrize("surface", ["circle", "polygon"])
def test_invariance_on_plane_curves(surface, map_spec, capsys):
    # the map's centre has the curve's two coordinates
    assert main(["invariance", "--surface", surface, *map_spec]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["selector"] == "ks"
    assert len(report["map_params"]["center"]) == 2


def _readme_command_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


@pytest.mark.parametrize("argv", _readme_command_lines(),
                         ids=lambda argv: "-".join(argv[:2]))
def test_readme_command_lines_parse(argv, tmp_path, monkeypatch, capsys):
    assert parse_args(argv).command == argv[0]
    # and each runs to a JSON report, its output files landing in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_nan_config_file_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"alpha": NaN}')
    code, err = _config_error(["energy", "--config", str(cfg_path),
                               "--surface", "circle"], capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert "alpha" in err["message"]


# ----------------------------------------------------------------------
# flag merging: only flags the user gave override the config file
# ----------------------------------------------------------------------

def test_global_flags_before_subcommand_are_kept():
    cfg = parse_args(["--threads", "2", "beta", "--surface", "circle",
                      "--z", "1"])
    assert cfg.threads == 2
    assert parse_args(["beta", "--surface", "circle", "--z", "1",
                       "--threads", "5"]).threads == 5


def test_config_file_value_not_overridden_by_flag_default(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"alpha": 1.0}))
    code = main(["--config", str(cfg_path), "energy", "--surface", "circle"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["alpha"] == 1.0
    assert data["report"]["value"] == pytest.approx(16 * math.pi, rel=1e-6)


def test_energy_kind_read_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"energy": "ks"}))
    code = main(["energy", "--config", str(cfg_path), "--surface", "circle"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["energy"] == "ks"
    # a flag the user gives still wins over the file
    cfg = parse_args(["--config", str(cfg_path), "energy", "--surface",
                      "circle", "--energy", "riesz", "--alpha", "1"])
    assert cfg.energy == "riesz"


def test_non_integer_threads_environment_exits_2():
    proc = subprocess.run([sys.executable, "-m", "rieszlab", "beta",
                           "--surface", "circle", "--z", "1"],
                          capture_output=True, text=True,
                          env={**_CHILD_ENV, "RIESZ_LAB_THREADS": "two"})
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "RIESZ_LAB_THREADS" in err["message"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_one_in_the_environment_exits_2(threads,
                                                           monkeypatch,
                                                           capsys):
    # before, a count below 1 ran serially with exit 0
    monkeypatch.setenv("RIESZ_LAB_THREADS", threads)
    assert main(["energy", "--surface", "circle", "--alpha", "-2.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "ConfigError"
    assert "threads" in err["message"]


def test_inversion_center_on_chart_sphere_exits_3():
    proc = _run_cli(["invariance", "--surface", "sphere", "--map",
                     "inversion:cx=1", "--energy", "ks"])
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "SingularMapError"


def test_non_numeric_map_parameter_exits_2():
    proc = _run_cli(["invariance", "--surface", "sphere", "--map",
                     "inversion:cx=abc", "--energy", "ks"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ConfigError"
    assert "cx" in err["message"] and "abc" in err["message"]


@pytest.mark.parametrize("argv,key", [
    (["energy", "--surface", "sphere:radius=2", "--alpha", "1"], "radius"),
    (["invariance", "--surface", "sphere", "--map", "inversion:cx=3,rr=0.5",
      "--energy", "ks"], "rr"),
])
def test_unknown_parameter_key_exits_2(argv, key, capsys):
    # a misspelt key is an error, not a silent run of the default
    code, err = _config_error(argv, capsys)
    assert code == 2 and err["error"] == "ConfigError"
    assert key in err["message"]


@pytest.mark.parametrize("name", list(_SURFACES))
def test_every_catalog_surface_builds_and_lists_its_keys(name, tmp_path,
                                                         capsys):
    spec = name
    if name == "mesh":              # its path has no default to build from
        path = tmp_path / "ok.off"
        path.write_text(_MESH_FILES["ok.off"])
        spec = f"mesh:path={path}"
    assert isinstance(parse_surface(spec), Surface)
    code, err = _config_error(["energy", "--surface", f"{name}:zz=1",
                               "--alpha", "-4"], capsys)
    keys = " ".join(_SURFACES[name][0])
    assert code == 2 and err["error"] == "ConfigError"
    assert err["message"] == (f"unknown surface parameter zz in "
                              f"'{name}:zz=1'; {name} takes {keys}")


# catalog keys and, for the integer ones, bounds that keep every mesh small
_CATALOG = {
    "circle": "r", "sphere": "r cx cy cz", "ellipsoid": "a b c",
    "torus": "R r", "cylinder": "r L", "saddle": "extent",
    "two-spheres": "gap r", "icosphere": "subdiv r cx cy cz",
    "torusmesh": "nu nv R r", "polygon": "n r", "dumbbell": "gap r subdiv",
    "klein-bottle": "r",
}
_INT_BOUNDS = {"subdiv": (-1, 2), "nu": (-1, 16), "nv": (-1, 16),
               "n": (-2, 96)}
_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1=2"])
_MESH_FILES = {
    "ok.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "ragged.off": "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n2 0 3\n",
    "words.off": "OFF\n1 1 0\na b c\n3 0 0 0\n",
    "short.off": "OFF\n",
    "out_of_range.obj": "v 0 0 0\nv 1 0 0\nf 1 2 9\n",
    "negative.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n",
    "negative.obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n",
    "no_vertices.obj": "f 1 2 3\n",
    "words.obj": "v a b c\nf 1 1 1\n",
}


@st.composite
def _catalog_specs(draw):
    name = draw(st.sampled_from(sorted(_CATALOG)))
    parts = []
    for key in draw(st.lists(st.sampled_from(_CATALOG[name].split()),
                             unique=True)):
        lo, hi = _INT_BOUNDS.get(key, (-3, 3))
        number = (st.integers(lo, hi).map(str) if key in _INT_BOUNDS
                  else st.floats(lo, hi).map(repr))
        parts.append(f"{key}={draw(number | _JUNK)}")
    return name + (":" + ",".join(parts) if parts else "")


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    for name, text in _MESH_FILES.items():
        (root / name).write_text(text)
    return root


def _builds_or_raises_a_config_error(spec):
    try:
        surface = parse_surface(spec)
    except (ConfigError, UnsupportedInputError):
        return
    assert isinstance(surface, Surface), spec


@settings(max_examples=150, deadline=None)
@given(spec=_catalog_specs())
def test_parse_surface_builds_or_raises_a_config_error(spec):
    _builds_or_raises_a_config_error(spec)


@pytest.mark.parametrize("name", [*_MESH_FILES, "missing.off", "missing.obj"])
@pytest.mark.parametrize("prefix", ["", "mesh:path="])
def test_mesh_file_spec_builds_or_raises_a_config_error(prefix, name,
                                                        mesh_dir):
    _builds_or_raises_a_config_error(f"{prefix}{mesh_dir / name}")


@pytest.mark.parametrize("name", ["negative.off", "negative.obj",
                                  "out_of_range.obj"])
def test_mesh_file_with_face_ids_outside_the_vertices_is_refused(name,
                                                                 mesh_dir,
                                                                 capsys):
    # a negative id used to wrap to the last vertex and build a mesh
    with pytest.raises(UnsupportedInputError, match="face 0 .* outside"):
        parse_surface(f"mesh:path={mesh_dir / name}")
    assert main(["energy", "--surface", str(mesh_dir / name), "--energy",
                 "ks"]) == 4
    assert "outside" in json.loads(capsys.readouterr().err)["message"]
