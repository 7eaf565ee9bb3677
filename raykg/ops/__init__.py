"""Large-scale training-data operators over document tables."""
