# Convenience targets for the Cayman reproduction.

PYTHON ?= python3

.PHONY: install test bench bench-matrix table2 fig6 quickstart clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest perfbench/tests -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-matrix:
	$(PYTHON) -m repro bench -j 4

table2:
	$(PYTHON) examples/reproduce_table2.py

fig6:
	$(PYTHON) -m repro fig6

quickstart:
	$(PYTHON) examples/quickstart.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
