"""`python -m mreg`: the mreg command."""

from .cli import main

main()
