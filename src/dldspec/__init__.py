"""Two-detector delay-line-anode biphoton spectrometer: simulation + analysis.

The package covers the full chain of such an instrument in software:

* `source_sim` draws the ground-truth emission stream (laser pulse train,
  energy-anti-correlated photon pairs, pump scatter, dark counts);
* `detector_sim` folds in quantum efficiency, trigger jitter, the delay-line
  anode's time encoding and multi-hit dead-time losses;
* `event_format` serializes/parses the raw five-channel timestamp stream
  (`.dlde` files);
* `reconstruction` groups pulses into hits and inverts timing to position and
  wavelength;
* `correlation` builds the delay histogram, peak fits, spectra, the joint
  spectrum, accidental subtraction and the coincidence-to-accidental ratio;
* `pipeline`/`cli` wire it into reproducible seeded runs.
"""

from .config import (
    AnodeGeometry,
    Calibration,
    ConfigError,
    CorrelationConfig,
    RunConfig,
    SimConfig,
    load_run_config,
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
from .detector_sim import apply_dead_time, detect, encode_anode, encode_groups
from .event_format import (
    BadMagicError,
    ChannelRangeError,
    Channel,
    DetectorRangeError,
    EventFileHeader,
    EventReader,
    EventWriter,
    FormatError,
    RawPulse,
    TimestampRangeError,
    TimestampRegressionError,
    TruncatedRecordError,
    parse_events,
    write_events,
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
from .reconstruction import (
    HitMatcher,
    MalformedHitError,
    match_hits,
    position_to_wavelength,
    reconstruct_position,
    wavelength_to_position,
)
from .source_sim import EventKind, generate_emissions, pulse_train, sample_background, sample_pairs

__version__ = "0.1.0"
