"""Test-only reference implementations that production code is diffed against."""
