package pagetable

// CheckCompacted exposes checkCompacted to this directory's external
// tests, which build inputs from packages that import pagetable.
var CheckCompacted = checkCompacted
