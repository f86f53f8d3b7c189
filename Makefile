.PHONY: test fast check bench acceptance reproduce

RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python3

# the Tier-1 command, listing the ten slowest tests
test:
	$(RUN) -m pytest -q --continue-on-collection-errors --durations=10

fast:
	$(RUN) -m pytest -q

# the tests, every evaluator against the independent reference semantics,
# then the shipped examples (exits 1 on any failed check)
check: fast
	$(RUN) bench/reference.py
	$(RUN) -m imodal.cli reproduce

bench:
	for w in soundness refute constructions cli; do \
		$(RUN) bench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

reproduce:
	$(RUN) -m imodal.cli reproduce
