"""Two-detector delay-line-anode biphoton spectrometer: simulation + analysis.

The package covers the full chain of such an instrument in software:

* `config` holds the run configuration, the laser pulse count and `Axis`;
* `source_sim` draws the ground-truth emission stream (energy-anti-correlated
  photon pairs, pump scatter, dark counts);
* `detector_sim` folds in trigger jitter, the spectrometer's wavelength to
  position map, the delay-line anode's time encoding and multi-hit dead-time
  losses;
* `event_format` serializes/parses the raw five-channel timestamp stream
  (`.dlde` files) and holds the `Columns` table type and the channel order;
* `reconstruction` groups pulses into hits and inverts timing to position and
  wavelength;
* `correlation` builds the delay histogram, peak fits, spectra, the joint
  spectrum, accidental subtraction and the coincidence-to-accidental ratio;
* `csvtext` formats report text a whole column at a time: the CSV rows, and
  each distinct value of a figure or curve once;
* `pipeline`/`cli` wire it into reproducible seeded runs.

The simulator (`source_sim`, `detector_sim`) and the analysis
(`reconstruction`, `correlation`, `csvtext`, `render`) import nothing of each
other, and `config` and `event_format` import neither, so the analysis has no
path to the simulation's truth. Only `pipeline`, `cli` and this module see
both halves.
"""

from .config import (
    AnodeGeometry,
    Axis,
    Calibration,
    ConfigError,
    CorrelationConfig,
    RunConfig,
    SimConfig,
    load_run_config,
    pulse_count,
    run_config_from_dict,
)
from .correlation import (
    AxisMismatchError,
    DegeneratePeakError,
    FitError,
    FwhmFit,
    Histogram1D,
    Histogram2D,
    JsiReport,
    build_jsi,
    fit_fwhm,
    g2_histogram,
    select_coincidences,
    spectrum_1d,
    subtract_accidental,
)
from .detector_sim import detect, encode_groups, wavelength_to_position
from .event_format import (
    BadMagicError,
    ChannelRangeError,
    Channel,
    Columns,
    DetectorRangeError,
    EventFileHeader,
    EventReader,
    EventWriter,
    FormatError,
    TimestampRangeError,
    TimestampRegressionError,
    TruncatedRecordError,
)
from .pipeline import (
    AnalysisResult,
    DecodeResult,
    SimulationSummary,
    analyze_events,
    analyze_file,
    decode_file,
    simulate_to_file,
    write_report_bundle,
)
from .reconstruction import HitMatcher, hit_positions, position_to_wavelength
from .source_sim import EmissionTally, EventKind, generate_emissions, sample_background, sample_pairs

__version__ = "0.1.0"
