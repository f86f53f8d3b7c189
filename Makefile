.PHONY: test fast check bench acceptance reproduce

# the Tier-1 command
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

fast:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q -m "not slow"

# the fast tests, every evaluator against the independent reference semantics,
# then the shipped examples (exits 1 on any failed check)
check: fast
	python3 bench/reference.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python3 -m imodal.cli reproduce

bench:
	for w in soundness refute constructions cli; do \
		python3 bench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

acceptance:
	PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s

reproduce:
	PYTHONPATH=src python3 -m imodal.cli reproduce
