"""Entry point for `python -m inconlog`."""

from .cli import main

main()
