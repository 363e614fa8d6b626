"""randamp: certification and simulation toolkit for randomness
amplification from weak bit sources with a two-component no-signaling device.

Subpackage map:
    ks_bell     the 18-vector model, the 504-term Bell functional, the
                exhaustive classical bound and the coloring count
    boxes       behaviors (tables), the ideal box, noise, and the device
                (b1 until round tau, then b2)
    ns_certify  the randomness LP, exact rational dual certificates
    sv_source   bounded-bias bit sources, the bits-to-settings map, and the
                exact adversarial concentration oracle
    bounds      tail bounds with Monte Carlo validators (no package imports)
    protocol    protocol runs, derived security constants, campaigns,
                transcripts
    extractor   inner-product two-source extraction and exact
                sequence-probability accounting
    cli         batch front door (`randamp` command)
"""

__version__ = "0.1.0"

from .ks_bell import (build_ks_model, build_bell_functional,
                      classical_minimum, ks_coloring_count,
                      KSModel, BellFunctional)
from .boxes import (Behavior, ideal_quantum_box, uniform_box, depolarize,
                    make_iid_device, make_adversarial_device)
from .ns_certify import (build_lp, solve_lp, verify_certificate,
                         DualCertificate, LPProblem)
from .sv_source import (SVSource, SettingMap, DEFAULT_MAP,
                        setting_measure_extrema, sv_chernoff_oracle)
from .bounds import (azuma_bound, azuma_empirical, relative_entropy,
                     chernoff_bound, chernoff_empirical)
from .protocol import (ProtocolParams, run_protocol, select_params,
                       security_report, expected_tomography_rate,
                       monte_carlo)
from .extractor import ExtractorConfig, extract

__all__ = [name for name in dir() if not name.startswith("_")]
