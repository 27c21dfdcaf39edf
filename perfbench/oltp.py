"""``oltp_keyed``: static #sql clauses over a durable keyed table.

Set-up translates a ``.psqlj`` program against the live schema, so its
clauses reach the engine as profile entries through the SQLJ runtime;
``transfer`` is a Part 1 procedure installed from an archive that makes
two keyed UPDATEs through the default connection.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Any, Dict, List, Tuple

from base import DurableWorkload, expect_equal
from gen import OltpGenerator
from harness import Stream

PROGRAM = """\
def get_acct(id):
    owner = None
    bal = 0
    #sql { SELECT owner, bal INTO :owner, :bal FROM acct WHERE id = :id };
    return (owner, bal)

def deposit(id, amount):
    #sql { UPDATE acct SET bal = bal + :amount WHERE id = :id };

def transfer(src, dst, amount):
    #sql { CALL transfer(:src, :dst, :amount) };

def open_acct(id, owner, bal):
    #sql { INSERT INTO acct VALUES (:id, :owner, :bal) };

def close_acct(id):
    #sql { DELETE FROM acct WHERE id = :id };
"""

ROUTINES = """\
from repro import DriverManager


def transfer(src, dst, amount):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    debit = conn.prepare_statement(
        "UPDATE acct SET bal = bal - ? WHERE id = ?")
    debit.set_int(1, amount)
    debit.set_int(2, src)
    debit.execute_update()
    credit = conn.prepare_statement(
        "UPDATE acct SET bal = bal + ? WHERE id = ?")
    credit.set_int(1, amount)
    credit.set_int(2, dst)
    credit.execute_update()
"""

LOAD_BATCH = 1000


class OltpKeyed(DurableWorkload):
    name = "oltp_keyed"

    def prepare(self) -> None:
        self.gen = OltpGenerator(self.seed, self.spec)
        self.module: Any = None
        self.context: Any = None

    def setup(self) -> None:
        from repro import ConnectionContext
        from repro.procedures import build_par
        from repro.translator import TranslationOptions, Translator

        database = self.open()
        session = database.create_session(autocommit=True)
        session.execute(
            "CREATE TABLE acct (id INT PRIMARY KEY, owner VARCHAR(20), "
            "bal INT)"
        )
        rows = [list(row) for row in self.gen.initial]
        for start in range(0, len(rows), LOAD_BATCH):
            session.execute_batch("INSERT INTO acct VALUES (?, ?, ?)",
                                  rows[start:start + LOAD_BATCH])
        code_dir = self.next_dir("code")
        par = build_par(os.path.join(code_dir, "bank.par"),
                        {"bankroutines": ROUTINES})
        session.execute(f"CALL sqlj.install_par('file:{par}', 'bank')")
        session.execute(
            "CREATE PROCEDURE transfer(src INTEGER, dst INTEGER, "
            "amount INTEGER) MODIFIES SQL DATA "
            "EXTERNAL NAME 'bank:bankroutines.transfer' "
            "LANGUAGE PYTHON PARAMETER STYLE PYTHON"
        )
        session.execute("ANALYZE acct")
        session.close()
        source = os.path.join(code_dir, "bankapp.psqlj")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(PROGRAM)
        Translator(TranslationOptions(exemplar=database)) \
            .translate_file(source)
        self.context = ConnectionContext(database)
        ConnectionContext.set_default_context(self.context)
        sys.path.insert(0, code_dir)
        try:
            sys.modules.pop("bankapp", None)
            self.module = importlib.import_module("bankapp")
        finally:
            sys.path.remove(code_dir)

    def teardown(self) -> None:
        if self.context is not None:
            self.context.close()
            self.context = None
        sys.modules.pop("bankapp", None)
        self.module = None
        super().teardown()

    def streams(self) -> List[Stream]:
        module = self.module
        execution = self.context.execution_context
        call = self.call

        def run(op: Any) -> Tuple[float, int, int]:
            kind = op.kind
            if kind == "select_into":
                seconds, got = call(module.get_acct, *op.params)
                expect_equal(f"acct {op.params[0]}", got, op.expect)
                return seconds, 1, 0
            if kind == "update":
                seconds, _ = call(module.deposit, *op.params)
                expect_equal("update count", execution.update_count, 1)
                return seconds, 0, 1
            if kind == "call_transfer":
                seconds, _ = call(module.transfer, *op.params)
                return seconds, 0, 2
            if kind == "insert":
                seconds, _ = call(module.open_acct, *op.params)
                expect_equal("insert count", execution.update_count, 1)
                return seconds, 0, 1
            seconds, _ = call(module.close_acct, *op.params)
            expect_equal("delete count", execution.update_count, 1)
            return seconds, 0, 1

        return [(self.gen.next_op, run)]

    @staticmethod
    def table_rows(database: Any) -> List[Tuple[Any, ...]]:
        session = database.create_session(autocommit=True)
        try:
            result = session.execute(
                "SELECT id, owner, bal FROM acct ORDER BY id")
            return [tuple(row) for row in result.rows]
        finally:
            session.close()

    def live_logical_bytes(self) -> int:
        from gen import logical_bytes
        return sum(logical_bytes(row) for row in self.gen.rows())

    def finish(self) -> Dict[str, float]:
        want = self.gen.rows()
        expect_equal("final rows", self.table_rows(self.database), want)
        self.stop_writes()
        return self.recover(self.table_rows, want)
