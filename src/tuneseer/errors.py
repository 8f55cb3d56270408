"""The package's one exception type, raised for every documented
precondition that a call or an input file breaks."""


class ContractError(ValueError):
    """An argument violated a documented precondition."""
