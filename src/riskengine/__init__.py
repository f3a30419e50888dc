"""Monte Carlo market-risk engine.

Gaussian-mixture scenario models calibrated by EM over rolling return
windows, empirical VaR/ES with short-horizon volatility rescaling, classical
baselines (historical, parametric normal, GBM Monte Carlo) and
Christoffersen coverage backtesting.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    ConfigError,
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    ParseError,
    RiskEngineError,
    RunFailureError,
    ShapeError,
    TailEmptyError,
    ValidationError,
)
from .timeseries import (  # noqa: E402
    PricePanel,
    load_prices,
    log_returns,
)
from .gmm import (  # noqa: E402
    FitReport,
    GaussianMixtureModel,
    fit,
    log_likelihood,
    mixture_cdf,
    sample,
)
from .risk import (  # noqa: E402
    PortfolioSpec,
    var_es_columns,
)
from .baselines import (  # noqa: E402
    calibrate_gbm,
    parametric_columns,
    simulate_gbm_portfolio,
)
from .backtest import (  # noqa: E402
    BacktestReport,
    ChristoffersenResult,
    christoffersen,
    hits,
    ks_test,
    quadratic_loss,
)
from .engine import (  # noqa: E402
    DayRecord,
    RunConfig,
    report,
    report_sweep,
    run_backtest,
    sweep_sigma_short,
)

__all__ = [
    "__version__",
    # errors
    "RiskEngineError", "ValidationError", "ShapeError", "ParseError",
    "InsufficientDataError", "DegenerateDataError", "NumericError",
    "TailEmptyError", "ConfigError", "RunFailureError",
    # timeseries
    "PricePanel", "load_prices", "log_returns",
    # gmm
    "GaussianMixtureModel", "FitReport", "mixture_cdf", "log_likelihood",
    "fit", "sample",
    # risk
    "PortfolioSpec", "var_es_columns",
    # baselines
    "parametric_columns", "calibrate_gbm", "simulate_gbm_portfolio",
    # backtest
    "ChristoffersenResult", "BacktestReport", "hits", "christoffersen",
    "quadratic_loss", "ks_test",
    # engine
    "RunConfig", "DayRecord", "run_backtest", "sweep_sigma_short",
    "report", "report_sweep",
]
