from .flagship import extract_pipeline  # noqa: F401
