"""`python -m lbstates`: the same entry point as the `lbstates` script."""

from .cli import main

if __name__ == "__main__":
    main()
