//! Fixture: malformed `// lint:` directives are themselves violations.

// lint: allow(panic-freedom)
//~^ directive-syntax
pub fn missing_justification() {}

// lint: allow(made-up-rule) with a reason
//~^ directive-syntax
pub fn unknown_rule() {}

// lint: relaxed-ok
//~^ directive-syntax
pub fn missing_reason() {}

// lint: bounded-by
//~^ directive-syntax
pub fn missing_cap() {}

// lint: frobnicate the widget
//~^ directive-syntax
pub fn unknown_directive() {}

// lint: capped-by
//~^ directive-syntax
pub fn missing_capped_bound() {}

// lint: entrypoint
//~^ directive-syntax
pub fn entrypoint_missing_reason() {}

// lint: polls-budget
//~^ directive-syntax
pub fn polls_budget_missing_reason() {}

// lint: allow(bounded-retry) a suppression of a rule the catalog no longer has
//~^ directive-syntax
pub fn stale_rule() {}
