"""Exception hierarchy for the laboratory.  Each error class carries its
``cflab`` exit code and the label of its one-line stderr message; success
and a bound violation, a FAIL row in a subcommand's report, are the two exit
codes that no error stands for."""

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2


class CfLabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 64
    label = "error"


class GridError(CfLabError):
    """Requested initial data cannot be represented on the size grid."""

    label = "grid error"


class SolverAbort(CfLabError):
    """Time stepper produced an invalid state (negative or non-finite counts)."""

    exit_code = 1
    label = "solver abort"


class AbsorbingStateError(CfLabError):
    """Stochastic particle system has total event rate zero."""


class FanCoverageError(CfLabError):
    """Reconstruction query lies outside the range covered by surviving paths."""

    exit_code = 3
    label = "fan coverage"


class FanCrossingError(CfLabError):
    """Two characteristic paths crossed; the fan is unusable past that time."""

    exit_code = 1
    label = "fan crossing"


class ConfigError(CfLabError):
    """Experiment configuration file is missing, unreadable, or inconsistent."""

    label = "config error"


class MissingArtifactError(CfLabError):
    """An expected run artifact (the snapshot table, ...) does not exist."""

    exit_code = 66
    label = "missing artifact"


class CsvFormatError(CfLabError):
    """A CSV artifact exists but cannot be parsed against its schema."""

    exit_code = 65
    label = "artifact parse failure"
