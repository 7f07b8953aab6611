"""`python -m alexkit <verb> ...`: the command-line interface."""
from .cli import main

main()
