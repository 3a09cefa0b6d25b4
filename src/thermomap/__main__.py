"""``python -m thermomap``: the command-line front end."""

from .cli import main

main()
