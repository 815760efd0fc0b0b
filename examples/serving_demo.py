"""Demo (and CI smoke test) of the online query-serving subsystem.

Starts a server on an ephemeral port, registers a small SSB instance over the
wire, runs an analyst session — named query, SQL query, GROUP BY with
parallel composition — until the per-analyst ε budget is exhausted, and
asserts that the ledger's refusal arrives as a structured
``budget_exhausted`` error.  Repeats are answered from the server's memo of
released answers: identical bytes, still charged.  Exits non-zero if any
step misbehaves, which is what lets CI use it as the serving round-trip
smoke.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from repro.dp.accountant import PrivacyBudget
from repro.serving import (
    BudgetLedger,
    QueryPlanner,
    QueryServer,
    ServerThread,
    ServingClient,
    ServingError,
)


def main() -> int:
    # Every analyst of this server gets ε = 1.0 in total.
    server = QueryServer(
        QueryPlanner(seed=7), BudgetLedger(PrivacyBudget(1.0)), port=0
    )
    with ServerThread(server):
        with ServingClient(port=server.port) as client:
            info = client.ping()
            print(f"connected: protocol v{info['protocol']}, seed {info['seed']}")

            registered = client.register(
                "demo", "ssb", scale_factor=1.0, rows_per_scale_factor=4000, seed=11
            )
            print(
                f"registered {registered['name']}: {registered['fact_rows']} fact rows, "
                f"private dimensions {registered['private_dimensions']}"
            )

            # A named paper query through the Predicate Mechanism.
            result = client.query("demo", "PM", 0.4, query="Qc1", analyst="alice")
            print(
                f"Qc1 via PM(eps=0.4): answer {result['answer']:.1f} "
                f"(remaining eps {result['privacy']['remaining_epsilon']:.2f})"
            )

            # The same semantics as SQL text: identical seed stream, so the
            # answer is byte-identical to the named form at equal ε — served
            # from the memo of released answers, under the SQL spelling.
            sql_result = client.query(
                "demo",
                "PM",
                0.4,
                sql="SELECT count(*) FROM Lineorder, Date WHERE Date.year = 1993",
                analyst="alice",
            )
            assert sql_result["answer"] == result["answer"], "determinism broken"
            assert sql_result["answers"] == result["answers"], "determinism broken"
            assert sql_result["query"] == "sql", sql_result["query"]
            memo = client.stats()["planner"]["memo"]
            assert memo["hits"] == 1, memo
            print(
                f"same query as SQL: answer {sql_result['answer']:.1f} "
                f"(identical; memo {memo['hits']} hit, {memo['misses']} miss)"
            )

            # GROUP BY runs on disjoint partitions: parallel composition,
            # the whole grouped answer costs ε once.
            grouped = client.query(
                "demo",
                "PM",
                0.2,
                sql="SELECT count(*) FROM Lineorder, Customer GROUP BY Customer.region",
                analyst="alice",
            )
            assert grouped["composition"] == "parallel"
            print(f"grouped query ({grouped['composition']} composition): "
                  f"{len(grouped['answer']['groups'])} groups")

            # alice has now spent 0.4 + 0.4 + 0.2 = 1.0: the ledger must
            # refuse the next request with a structured error.
            try:
                client.query("demo", "PM", 0.1, query="Qc2", analyst="alice")
            except ServingError as error:
                assert error.code == "budget_exhausted", error.code
                print(
                    f"refused as expected: {error.code} "
                    f"(remaining eps {error.details['remaining_epsilon']:.2f})"
                )
            else:
                raise AssertionError("ledger failed to refuse an exhausted analyst")

            budget = client.budget("alice")
            assert abs(budget["spent_epsilon"] - 1.0) < 1e-9
            print(f"alice's ledger: {budget['charges']} charges, "
                  f"eps {budget['spent_epsilon']:.2f}/{budget['total_epsilon']:.2f}")

            # A repeated request returns the released bytes again, and the
            # ledger charges it again.
            first = client.query("demo", "R2T", 0.3, query="Qs2", analyst="bob")
            repeat = client.query("demo", "R2T", 0.3, query="Qs2", analyst="bob")
            assert repeat["answers"] == first["answers"], "repeat changed the answer"
            spent = client.budget("bob")["spent_epsilon"]
            assert abs(spent - 0.6) < 1e-9, spent
            print(f"bob repeated a query: identical answers, eps {spent:.2f} charged")

            client.shutdown()
    print("serving demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
