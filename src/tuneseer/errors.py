"""Exception types shared across the package."""


class ContractError(ValueError):
    """An argument violated a documented precondition."""


class UnknownFunctionError(ContractError):
    """Requested benchmark function id is not in the registry."""


class NoDataError(ContractError):
    """An operation that needs training records was given an empty store."""
