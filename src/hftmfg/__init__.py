"""Mean-field equilibria between a discretely-trading large trader and a
continuum of fast traders with switching inventory aversion, plus a
finite-population simulator for empirical epsilon-Nash checks."""

from .config import (AversionSpec, LTSchedule, MarketParams, ModelConfig,
                     PopulationInit, SolverSettings, config_hash, load_config,
                     serialize_config, validate_schedule_feasibility)
from .errors import ConfigError, SimulationError, SolverError
from .grid import PiecewiseCurve, TimeGrid, make_grid
from .chain import solve_chain
from .riccati import (RiccatiSolution, compute_h0, feedback_control,
                      integrate_h1_backward, recover_h1, solve_h2, value_function)
from .meanfield import (MeanFieldEngine, MeanFieldSolution, closed_form_n1, closed_form_q0,
                        solve_partial)
from .strategy import (OverallEquilibrium, ProfitReport, concavity_check,
                       lt_best_response, lt_profit, solve_overall)
from .simulate import (ConvergenceMetrics, DeviationResult, LTPathOutcome,
                       deviation_gain, lt_deviation_gain, sample_price_paths,
                       simulate_population)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
