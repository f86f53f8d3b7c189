.PHONY: test fast bench acceptance reproduce

test:
	PYTHONPATH=src python -m pytest -q

fast:
	PYTHONPATH=src python -m pytest -q -m "not slow"

bench:
	for w in soundness refute constructions cli; do \
		python3 bench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

acceptance:
	PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s

reproduce:
	PYTHONPATH=src python3 -m imodal.cli reproduce
