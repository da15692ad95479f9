// Package lib is the unreachable fixture's dependency: one function main
// uses, one nothing uses.
package lib

func GoodExported() int { return goodHelper() }

func goodHelper() int { return 8 }

func BadUnusedExport() int { return 9 }
