"""emtrace: differentiable specular ray tracing for radio propagation.

Traces reflection paths through triangle-mesh scenes with the image method,
turns them into polarized complex channel gains, impulse/frequency responses
and coverage maps, and differentiates those quantities with respect to
material parameters, device orientations and positions for gradient-based
calibration.
"""

from .autodiff import DiffComplex, DiffScalar, Tape
from .bvh import Bvh, build
from .channel import (Cir, CoverageMap, FreqResponse, GridSpec, build_cir,
                      coverage_map, frequency_response, load_cir,
                      point_path_gain, save_cir)
from .em import (ChannelGains, EvalContext, apply_doppler, compute_gains,
                 fresnel, synthetic_phase, transfer)
from .geometry import fibonacci_directions, rotation_from_ypr
from .optim import (Dataset, OptimConfig, TrainLog, generate_dataset,
                    learn_materials, optimize_orientation)
from .scene import (AntennaArray, RadioDevice, RadioMaterial, Scene,
                    SceneError, SceneObject, bundled_scene, load_scene,
                    look_at, material_eval, write_scene)
from .tracer import (PathSet, PropagationPath, compute_paths,
                     compute_paths_between, dump_paths, enumerate_candidates,
                     image_solve, launch_candidates, los_path)

__version__ = "0.1.0"
