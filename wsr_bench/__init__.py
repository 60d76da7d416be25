"""Repo benchmark for web_scraper_ray: see run.py."""
