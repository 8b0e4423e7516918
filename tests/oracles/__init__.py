"""Reference implementations the tests pin the optimised runtime against."""
