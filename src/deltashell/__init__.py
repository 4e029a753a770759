"""deltashell: forward scattering for media with a delta-shell surface term.

A Helmholtz/Schrodinger scattering engine for potentials V in L^2 with
compact support plus a surface interaction of strength alpha on a closed
Lipschitz surface, together with the acoustic-medium bridge (densities with
a normal-derivative jump across the surface), a partial-wave reference
oracle, and a verification harness for the structural identities behind
two-frequency inverse uniqueness.
"""

from ._dense import ExceptionalFrequencyError
from .acoustic import (
    GaussianBump,
    MediumSpec,
    MediumValidityError,
    RadialCutoff,
    SchrodingerData,
    acoustic_farfield,
    acoustic_to_schrodinger,
    eval_density,
    eval_sound_speed,
    schrodinger_to_acoustic_field,
)
from .boundary import (
    BoundaryDensity,
    DeltaSolution,
    DeltaSpec,
    DeltaSystem,
    assemble_single_layer,
    check_jump_relation,
    eval_scattered_field,
    eval_total_field,
    layer_potential,
    layer_potential_gradient,
    solve_delta_system_composition,
)
from .farfield import (
    AMPLITUDE_SCALE,
    CONVENTIONS,
    FarFieldPattern,
    direction_grid,
    farfield_kirchhoff,
    farfield_source,
    load_farfield_csv,
    save_farfield_csv,
    scattering_amplitude,
)
from .geometry import (
    SphereGrid,
    SurfaceMesh,
    VolumeGrid,
    load_mesh,
    make_sphere_grid,
    make_sphere_mesh,
    make_volume_grid,
    save_mesh,
)
from .harness import (
    ExperimentReport,
    fourier_identity_check,
    green_pairing_check,
    reciprocity_check,
    sommerfeld_check,
    uniqueness_experiment,
)
from .kernels import (
    ComplexDirection,
    Exponential,
    Herglotz,
    OverflowGuardError,
    PlaneWave,
    eval_incident,
    eval_incident_grad,
    helmholtz_kernel,
    make_sigma_k,
    plane_wave,
    sigma_pair_for_xi,
)
from .mie import (
    PartialWaveSolution,
    RadialMedium,
    mie_farfield_values,
    solve_partial_waves,
    spherical_bessel,
    spherical_hankel,
)
from .volume import (
    PotentialSample,
    VolumeField,
    assemble_volume_operator,
    eval_volume_field,
    solve_lippmann_schwinger,
)

__version__ = "0.1.0"
